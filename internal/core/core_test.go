package core

import (
	"sync"
	"testing"
	"time"

	"ffwd/internal/ds"
	"ffwd/internal/obs"
)

// startServer builds, starts and schedules cleanup for a server.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestDelegateRoundTrip(t *testing.T) {
	s := NewServer(Config{})
	add := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] + a[1] })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	c := s.MustNewClient()
	if got := c.Delegate(add, 2, 40); got != 42 {
		t.Fatalf("Delegate(add,2,40) = %d, want 42", got)
	}
	for i := uint64(0); i < 1000; i++ {
		if got := c.Delegate(add, i, i*3); got != i*4 {
			t.Fatalf("Delegate(add,%d,%d) = %d, want %d", i, i*3, got, i*4)
		}
	}
}

func TestDelegateArgCounts(t *testing.T) {
	s := startServer(t, Config{})
	sum := s.Register(func(a *[MaxArgs]uint64) uint64 {
		var r uint64
		for _, v := range a {
			r += v
		}
		return r
	})
	c := s.MustNewClient()
	for argc := 0; argc <= MaxArgs; argc++ {
		args := make([]uint64, argc)
		var want uint64
		for i := range args {
			args[i] = uint64(i + 1)
			want += uint64(i + 1)
		}
		if got := c.Delegate(sum, args...); got != want {
			t.Fatalf("argc=%d: Delegate = %d, want %d", argc, got, want)
		}
	}
}

func TestDelegateTooManyArgsPanics(t *testing.T) {
	s := startServer(t, Config{})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 0 })
	c := s.MustNewClient()
	defer func() {
		if recover() == nil {
			t.Fatal("Delegate with 7 args did not panic")
		}
	}()
	c.Delegate(fid, 1, 2, 3, 4, 5, 6, 7)
}

func TestUnknownFuncIDReturnsSentinel(t *testing.T) {
	s := startServer(t, Config{})
	c := s.MustNewClient()
	if got := c.Delegate(FuncID(99)); got != ^uint64(0) {
		t.Fatalf("unknown func returned %d, want all-ones sentinel", got)
	}
}

func TestConcurrentClientsSharedCounter(t *testing.T) {
	const workers, iters = 16, 5000
	s := NewServer(Config{MaxClients: workers})
	var counter uint64 // owned by the server; no synchronization
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			for i := 0; i < iters; i++ {
				c.Delegate(inc)
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (delegation lost or duplicated requests)", counter, workers*iters)
	}
	if st := s.Stats(); st.Requests != workers*iters {
		t.Fatalf("Stats.Requests = %d, want %d", st.Requests, workers*iters)
	}
}

func TestMultipleGroups(t *testing.T) {
	// 40 clients spread over 3 response groups.
	const workers, iters = 40, 1000
	s := NewServer(Config{MaxClients: workers})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			for i := 0; i < iters; i++ {
				c.Delegate(inc)
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestClientSlotExhaustion(t *testing.T) {
	s := NewServer(Config{MaxClients: GroupSize})
	for i := 0; i < GroupSize; i++ {
		if _, err := s.NewClient(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.NewClient(); err != ErrNoSlots {
		t.Fatalf("NewClient past a full group: error = %v, want ErrNoSlots", err)
	}
}

func TestDoubleStartFails(t *testing.T) {
	s := NewServer(Config{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestStopIsIdempotentAndRestartable(t *testing.T) {
	s := NewServer(Config{})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 7 })
	s.Stop() // stopping a never-started server is a no-op
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := s.MustNewClient()
	if got := c.Delegate(fid); got != 7 {
		t.Fatalf("Delegate = %d, want 7", got)
	}
	s.Stop()
	s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := c.Delegate(fid); got != 7 {
		t.Fatalf("Delegate after restart = %d, want 7", got)
	}
	s.Stop()
}

func TestIssueWaitAsync(t *testing.T) {
	// FFWDx2: one goroutine, two clients, two requests in flight.
	s := startServer(t, Config{MaxClients: 2})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	c1 := s.MustNewClient()
	c2 := s.MustNewClient()
	for i := 0; i < 1000; i++ {
		c1.Issue(inc)
		c2.Issue(inc)
		c1.Wait()
		c2.Wait()
	}
	if counter != 2000 {
		t.Fatalf("counter = %d, want 2000", counter)
	}
}

func TestIssueWithoutWaitPanics(t *testing.T) {
	s := startServer(t, Config{})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 0 })
	c := s.MustNewClient()
	c.Issue(fid)
	defer func() {
		recover() // first panic expected
		c.Wait()
	}()
	c.Issue(fid)
	t.Fatal("second Issue without Wait did not panic")
}

func TestTryWaitWithoutIssuePanics(t *testing.T) {
	s := startServer(t, Config{})
	c := s.MustNewClient()
	defer func() {
		if recover() == nil {
			t.Fatal("TryWait without Issue did not panic")
		}
	}()
	c.TryWait()
}

func TestRegisterWhileRunning(t *testing.T) {
	s := startServer(t, Config{})
	c := s.MustNewClient()
	one := s.Register(func(*[MaxArgs]uint64) uint64 { return 1 })
	if got := c.Delegate(one); got != 1 {
		t.Fatalf("Delegate(one) = %d", got)
	}
	two := s.Register(func(*[MaxArgs]uint64) uint64 { return 2 })
	if got := c.Delegate(two); got != 2 {
		t.Fatalf("Delegate(two) = %d", got)
	}
	if got := c.Delegate(one); got != 1 {
		t.Fatalf("Delegate(one) after second registration = %d", got)
	}
}

func TestDelegatedDataStructure(t *testing.T) {
	// The paper's central use case: a single-threaded structure (skip
	// list) served to many goroutines.
	const workers = 8
	s := NewServer(Config{MaxClients: workers})
	sk := ds.NewSkipList()
	insert := s.Register(func(a *[MaxArgs]uint64) uint64 {
		if sk.Insert(a[0]) {
			return 1
		}
		return 0
	})
	contains := s.Register(func(a *[MaxArgs]uint64) uint64 {
		if sk.Contains(a[0]) {
			return 1
		}
		return 0
	})
	remove := s.Register(func(a *[MaxArgs]uint64) uint64 {
		if sk.Remove(a[0]) {
			return 1
		}
		return 0
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		base := uint64(w*10000 + 1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			for i := uint64(0); i < 500; i++ {
				k := base + i
				if c.Delegate(insert, k) != 1 {
					t.Errorf("insert(%d) failed", k)
					return
				}
				if c.Delegate(contains, k) != 1 {
					t.Errorf("contains(%d) false after insert", k)
					return
				}
				if i%2 == 0 && c.Delegate(remove, k) != 1 {
					t.Errorf("remove(%d) failed", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if got, want := sk.Len(), workers*250; got != want {
		t.Fatalf("skip list Len = %d, want %d", got, want)
	}
}

func TestPoolSharding(t *testing.T) {
	const shards = 4
	p := NewPool(shards, Config{MaxClients: 8})
	counters := make([]uint64, shards)
	incs := make([]FuncID, shards)
	for i := 0; i < shards; i++ {
		i := i
		incs[i] = p.Server(i).Register(func(*[MaxArgs]uint64) uint64 {
			counters[i]++
			return counters[i]
		})
		if incs[i] != incs[0] {
			t.Fatal("func ids diverged across servers")
		}
	}
	if err := p.StartAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := p.MustNewClient()
			for k := uint64(0); k < 1000; k++ {
				pc.Delegate(k, incs[0])
			}
		}()
	}
	wg.Wait()
	p.StopAll()
	var total uint64
	for i, c := range counters {
		if c != 2000 { // 8 workers × 1000 keys / 4 shards
			t.Fatalf("shard %d counter = %d, want 2000", i, c)
		}
		total += c
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}

func TestPoolRegisterAll(t *testing.T) {
	p := NewPool(3, Config{})
	fid := p.RegisterAll(func(a *[MaxArgs]uint64) uint64 { return a[0] * 2 })
	if err := p.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer p.StopAll()
	pc := p.MustNewClient()
	for k := uint64(0); k < 30; k++ {
		if got := pc.Delegate(k, fid, k); got != k*2 {
			t.Fatalf("Delegate(%d) = %d, want %d", k, got, k*2)
		}
	}
}

func TestPoolSizeClamped(t *testing.T) {
	if got := NewPool(0, Config{}).Size(); got != 1 {
		t.Fatalf("NewPool(0).Size() = %d, want 1", got)
	}
}

// respondGate is a tracer that holds the server right after each
// response flush, before the rest of its sweep runs, until the test has
// read the stats that response implies.
type respondGate struct{ read chan struct{} }

func (respondGate) Event(obs.Kind, int32, uint64) {}
func (respondGate) Now() int64                    { return 0 }
func (g respondGate) EventBatch(evs []obs.Event) {
	for _, e := range evs {
		if e.Kind == obs.KindRespond {
			select {
			case <-g.read:
			case <-time.After(time.Second):
			}
			return
		}
	}
}

func TestStatsCounters(t *testing.T) {
	gate := respondGate{make(chan struct{})}
	s := startServer(t, Config{Trace: gate})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 0 })
	c := s.MustNewClient()
	for i := uint64(1); i <= 100; i++ {
		c.Delegate(fid)
		// The count is published before the response: a client holding
		// its i'th response never reads fewer than i, even while the
		// server is held between that flush and the end of its sweep.
		if n := s.Stats().Requests; n != i {
			t.Fatalf("Requests = %d after response %d", n, i)
		}
		select {
		case gate.read <- struct{}{}:
		case <-time.After(time.Second):
			t.Fatalf("server never reached the gate after response %d", i)
		}
	}
	st := s.Stats()
	if st.Requests != 100 {
		t.Fatalf("Requests = %d, want 100", st.Requests)
	}
	if st.Batches == 0 || st.Batches > 100 {
		t.Fatalf("Batches = %d, want 1..100", st.Batches)
	}
	if st.Sweeps == 0 {
		t.Fatal("Sweeps = 0")
	}
}

func BenchmarkDelegateSingleClient(b *testing.B) {
	s := startServer(b, Config{})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	c := s.MustNewClient()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Delegate(inc)
	}
}

func BenchmarkDelegateParallel(b *testing.B) {
	s := startServer(b, Config{MaxClients: 64})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	b.RunParallel(func(pb *testing.PB) {
		c := s.MustNewClient()
		for pb.Next() {
			c.Delegate(inc)
		}
	})
}

func BenchmarkDelegateVsMutex(b *testing.B) {
	b.Run("ffwd", func(b *testing.B) {
		s := startServer(b, Config{MaxClients: 64})
		var counter uint64
		inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
		b.RunParallel(func(pb *testing.PB) {
			c := s.MustNewClient()
			for pb.Next() {
				c.Delegate(inc)
			}
		})
	})
	b.Run("mutex", func(b *testing.B) {
		var mu sync.Mutex
		var counter uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		})
	})
}
