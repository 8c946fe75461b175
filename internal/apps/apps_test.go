package apps

import (
	"sync"
	"testing"

	"ffwd/internal/locks"
	"ffwd/internal/simsync"
)

func TestKVStoreLRU(t *testing.T) {
	s := NewKVStore(3)
	s.Set(1, 10)
	s.Set(2, 20)
	s.Set(3, 30)
	if _, ok := s.Get(1); !ok { // promotes 1
		t.Fatal("Get(1) missed")
	}
	s.Set(4, 40) // evicts LRU = 2
	if _, ok := s.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	hits, misses, evictions := s.Stats()
	if hits != 4 || misses != 1 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d, want 4/1/1", hits, misses, evictions)
	}
}

func TestKVStoreUpdateAndDelete(t *testing.T) {
	s := NewKVStore(10)
	s.Set(7, 1)
	s.Set(7, 2) // update, no growth
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if v, _ := s.Get(7); v != 2 {
		t.Fatalf("Get(7) = %d, want 2", v)
	}
	if !s.Delete(7) || s.Delete(7) {
		t.Fatal("delete semantics wrong")
	}
	if s.Len() != 0 {
		t.Fatal("Len after delete != 0")
	}
}

func TestLockedKVConcurrent(t *testing.T) {
	kv := NewLockedKV(1<<16, func() sync.Locker { return new(locks.MCS) })
	var wg sync.WaitGroup
	const workers, iters = 8, 3000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		base := uint64(w * iters)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < iters; i++ {
				kv.Set(base+i, base+i+1)
				if v, ok := kv.Get(base + i); !ok || v != base+i+1 {
					t.Errorf("Get(%d) = %d,%v", base+i, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDelegatedKVMatchesLocked(t *testing.T) {
	d := NewDelegatedKV(1<<16, 8)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ref := NewLockedKV(1<<16, func() sync.Locker { return &sync.Mutex{} })

	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2000; i++ {
		c.Set(i, i*3)
		ref.Set(i, i*3)
	}
	for i := uint64(1); i <= 2000; i++ {
		dv, dok := c.Get(i)
		rv, rok := ref.Get(i)
		if dv != rv || dok != rok {
			t.Fatalf("key %d: delegated (%d,%v) vs locked (%d,%v)", i, dv, dok, rv, rok)
		}
	}
	if c.Len() != 2000 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.Delete(5) || c.Delete(5) {
		t.Fatal("delegated delete semantics wrong")
	}
}

func TestDelegatedKVConcurrentClients(t *testing.T) {
	d := NewDelegatedKV(1<<16, 8)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		base := uint64(w * 10000)
		go func() {
			defer wg.Done()
			c, err := d.NewClient()
			if err != nil {
				t.Error(err)
				return
			}
			for i := uint64(0); i < 1000; i++ {
				c.Set(base+i, base+i+7)
				if v, ok := c.Get(base + i); !ok || v != base+i+7 {
					t.Errorf("Get(%d) wrong", base+i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestKVSentinelValueRejected(t *testing.T) {
	d := NewDelegatedKV(16, 1)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	c, _ := d.NewClient()
	defer func() {
		if recover() == nil {
			t.Fatal("Set of sentinel value did not panic")
		}
	}()
	c.Set(1, ^uint64(0))
}

func TestRenderChecksumsAgreeAcrossBackends(t *testing.T) {
	const workers, tasks, work = 4, 400, 50

	locked := NewLockedWorkQueue(func() sync.Locker { return &sync.Mutex{} })
	lockedSum, lockedN := RunRender(func() WorkQueue { return locked }, workers, tasks, work)

	dq := NewDelegatedWorkQueue(workers)
	if err := dq.Start(); err != nil {
		t.Fatal(err)
	}
	defer dq.Stop()
	delegSum, delegN := RunRender(func() WorkQueue {
		c, err := dq.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, workers, tasks, work)

	if lockedSum != delegSum || lockedN != delegN {
		t.Fatalf("render results diverge: locked (%x,%d) vs delegated (%x,%d)",
			lockedSum, lockedN, delegSum, delegN)
	}
	if lockedN < tasks {
		t.Fatalf("executed %d < seeded %d", lockedN, tasks)
	}
}

func TestLinearRegressionBackendsAgree(t *testing.T) {
	const workers, n, batch = 4, 40000, 4

	la := NewLockedAccumulator(func() sync.Locker { return &sync.Mutex{} })
	sxL, syL, sxyL, sxxL, nL := LinearRegression(func() Accumulator { return la }, workers, n, batch)

	da := NewDelegatedAccumulator(workers)
	if err := da.Start(); err != nil {
		t.Fatal(err)
	}
	defer da.Stop()
	sxD, syD, sxyD, sxxD, nD := LinearRegression(func() Accumulator {
		c, err := da.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, workers, n, batch)

	if sxL != sxD || syL != syD || sxyL != sxyD || sxxL != sxxD || nL != nD {
		t.Fatalf("regression sums diverge: locked (%d,%d,%d,%d,%d) vs delegated (%d,%d,%d,%d,%d)",
			sxL, syL, sxyL, sxxL, nL, sxD, syD, sxyD, sxxD, nD)
	}
	if nL != n/batch {
		t.Fatalf("accumulated %d points, want %d", nL, n/batch)
	}
}

func TestStringMatchBackendsAgree(t *testing.T) {
	la := NewLockedAccumulator(func() sync.Locker { return &sync.Mutex{} })
	lockedMatches := StringMatch(func() Accumulator { return la }, 4, 20000)

	da := NewDelegatedAccumulator(4)
	if err := da.Start(); err != nil {
		t.Fatal(err)
	}
	defer da.Stop()
	delegMatches := StringMatch(func() Accumulator {
		c, err := da.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, 4, 20000)

	if lockedMatches != delegMatches {
		t.Fatalf("match counts diverge: %d vs %d", lockedMatches, delegMatches)
	}
	if lockedMatches == 0 {
		t.Fatal("no matches found")
	}
}

func TestMatrixMultiplyBackendsAgree(t *testing.T) {
	const workers, size = 4, 48
	ld := NewLockedDispenser(size, func() sync.Locker { return new(locks.Ticket) })
	lockedSum := MatrixMultiply(func() RowDispenser { return ld }, workers, size)

	dd := NewDelegatedDispenser(size, workers)
	if err := dd.Start(); err != nil {
		t.Fatal(err)
	}
	defer dd.Stop()
	delegSum := MatrixMultiply(func() RowDispenser {
		c, err := dd.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, workers, size)

	// Also a serial reference.
	serial := MatrixMultiply(func() RowDispenser {
		return NewLockedDispenser(size, func() sync.Locker { return &sync.Mutex{} })
	}, 1, size)

	if lockedSum != delegSum || lockedSum != serial {
		t.Fatalf("matmul checksums diverge: locked %x, delegated %x, serial %x",
			lockedSum, delegSum, serial)
	}
}

func TestProfilesWellFormed(t *testing.T) {
	if len(Profiles) != 11 {
		t.Fatalf("have %d profiles, want the paper's 11", len(Profiles))
	}
	seen := map[string]bool{}
	for _, p := range Profiles {
		if p.ThinkNS <= 0 || p.TotalOps <= 0 || p.Vars < 1 || p.CapMops <= 0 {
			t.Errorf("%s: malformed profile %+v", p.Name, p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if _, ok := ProfileByName(p.Name); !ok {
			t.Errorf("ProfileByName(%s) failed", p.Name)
		}
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName(nope) succeeded")
	}
}

func TestThroughputRespectsCap(t *testing.T) {
	o := SimOptions{}
	p, _ := ProfileByName("Raytrace Car")
	v := Throughput(o, p, simsync.FFWD, 128)
	if v > p.CapMops+1e-9 {
		t.Fatalf("throughput %.2f exceeds app cap %.2f", v, p.CapMops)
	}
}

func TestBestThroughputPicksAThreadCount(t *testing.T) {
	o := SimOptions{}
	p, _ := ProfileByName("Memcached Set")
	mops, threads := BestThroughput(o, p, simsync.MUTEX)
	if mops <= 0 || threads < 2 {
		t.Fatalf("BestThroughput = %.2f @ %d", mops, threads)
	}
}

func TestRuntimeInverseOfThroughput(t *testing.T) {
	o := SimOptions{}
	p, _ := ProfileByName("Memcached Set")
	r := RuntimeSeconds(o, p, simsync.FFWD, 64)
	if r <= 0 {
		t.Fatal("runtime not positive")
	}
	mops := Throughput(o, p, simsync.FFWD, 64)
	want := p.TotalOps / (mops * 1e6)
	if r < want*0.99 || r > want*1.01 {
		t.Fatalf("RuntimeSeconds = %v, want %v", r, want)
	}
}

func BenchmarkDelegatedKV(b *testing.B) {
	d := NewDelegatedKV(1<<16, 64)
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Stop()
	b.RunParallel(func(pb *testing.PB) {
		c, err := d.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		i := uint64(0)
		for pb.Next() {
			i++
			if i%3 == 0 {
				c.Set(i%4096, i)
			} else {
				c.Get(i % 4096)
			}
		}
	})
}

func BenchmarkLockedKV(b *testing.B) {
	kv := NewLockedKV(1<<16, func() sync.Locker { return &sync.Mutex{} })
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			if i%3 == 0 {
				kv.Set(i%4096, i)
			} else {
				kv.Get(i % 4096)
			}
		}
	})
}

func TestKVStoreTTL(t *testing.T) {
	s := NewKVStore(16)
	s.SetTTL(1, 100, 0, 10) // expires at tick 10
	s.SetTTL(2, 200, 0, 0)  // never expires
	if v, ok := s.GetAt(1, 5); !ok || v != 100 {
		t.Fatalf("GetAt(1,5) = %d,%v", v, ok)
	}
	if _, ok := s.GetAt(1, 10); ok {
		t.Fatal("key 1 survived its expiry tick")
	}
	if v, ok := s.GetAt(2, 1<<40); !ok || v != 200 {
		t.Fatalf("no-expiry key lost: %d,%v", v, ok)
	}
	if s.Expired() != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired())
	}
}

func TestKVStoreTTLUpdateResetsExpiry(t *testing.T) {
	s := NewKVStore(16)
	s.SetTTL(1, 100, 0, 5)
	s.SetTTL(1, 101, 3, 10) // refresh at tick 3: now expires at 13
	if v, ok := s.GetAt(1, 7); !ok || v != 101 {
		t.Fatalf("refreshed key missing at tick 7: %d,%v", v, ok)
	}
	if _, ok := s.GetAt(1, 13); ok {
		t.Fatal("refreshed key survived new expiry")
	}
}

func TestKVStoreTTLSetAfterExpiryIsFresh(t *testing.T) {
	s := NewKVStore(16)
	s.SetTTL(1, 100, 0, 5)
	// Writing at tick 9 must first reclaim the stale entry, then insert.
	s.SetTTL(1, 111, 9, 0)
	if v, ok := s.GetAt(1, 1<<30); !ok || v != 111 {
		t.Fatalf("re-set key = %d,%v", v, ok)
	}
	if s.Expired() != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired())
	}
}

// sweepTo is what a store's owner does as time passes — advance the
// clock to now, drain the wheel — and returns how many entries that
// reclaimed.
func sweepTo(s *KVStore, now uint64) int {
	before := s.Expired()
	s.AdvanceClock(now)
	s.Maintain(0)
	return int(s.Expired() - before)
}

func TestKVStoreSweepExpired(t *testing.T) {
	s := NewKVStore(64)
	for i := uint64(1); i <= 20; i++ {
		ttl := uint64(0)
		if i%2 == 0 {
			ttl = i // even keys expire at tick i
		}
		s.SetTTL(i, i*10, 0, ttl)
	}
	if got := sweepTo(s, 10); got != 5 { // keys 2,4,6,8,10
		t.Fatalf("sweep to 10 = %d, want 5", got)
	}
	if s.Len() != 15 {
		t.Fatalf("Len = %d, want 15", s.Len())
	}
	if got := sweepTo(s, 1<<30); got != 5 { // keys 12..20 even
		t.Fatalf("second sweep = %d, want 5", got)
	}
	if v, ok := s.GetAt(1, 1<<30); !ok || v != 10 {
		t.Fatalf("no-expiry key 1 = %d,%v", v, ok)
	}
}

func TestDelegatedKVTTL(t *testing.T) {
	d := NewDelegatedKV(64, 2)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	c.SetTTLNow(1, 100, 10)
	c.SetTTLNow(2, 200, 20)
	c.SetTTLNow(3, 300, 0)
	c.AdvanceClock(5)
	if v, ok := c.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) at tick 5 = %d,%v", v, ok)
	}
	// Time passes on the server: key 1 (and only key 1) is reclaimed,
	// whether by the background wheel drain or lazily by the read.
	c.AdvanceClock(15)
	if _, ok := c.Get(1); ok {
		t.Fatal("key 1 survived past its expiry")
	}
	if _, _, _, expired := c.Stats(); expired != 1 {
		t.Fatalf("expired = %d after the clock reached 15, want 1", expired)
	}
	c.AdvanceClock(25)
	if _, ok := c.Get(2); ok {
		t.Fatal("key 2 survived past its expiry")
	}
	c.AdvanceClock(1 << 40)
	if v, ok := c.Get(3); !ok || v != 300 {
		t.Fatalf("no-expiry key = %d,%v", v, ok)
	}
}
