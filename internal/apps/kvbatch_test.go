package apps

import (
	"testing"

	"ffwd/internal/wireproto"
)

func newBatchKV(t *testing.T, window int) (*DelegatedKV, *KVBatchClient) {
	t.Helper()
	d := NewDelegatedKV(1024, window+2)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	b, err := d.NewBatchClient(window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return d, b
}

// TestBatchClientOrderAndValues pins that completions arrive in submit
// order with per-kind return words, across batches larger than the
// window.
func TestBatchClientOrderAndValues(t *testing.T) {
	_, b := newBatchKV(t, 4)

	type op struct {
		kind byte // 'g', 's', 'x' (set with a TTL), 't' (touch)
		key  uint64
		val  uint64 // the touch's TTL
		want uint64
	}
	miss := ^uint64(0)
	ops := []op{
		{'g', 1, 0, miss}, // miss
		{'s', 1, 100, 0},  // store
		{'g', 1, 0, 100},  // hit
		{'s', 2, 200, 0},
		{'t', 3, 0, 0},   // touch absent
		{'t', 1, 0, 1},   // touch present
		{'x', 1, 150, 0}, // overwrite with a TTL
		{'g', 1, 0, 150},
		{'g', 2, 0, 200},
		{'s', 4, 400, 0},
		{'g', 4, 0, 400},
		{'g', 3, 0, miss}, // the touch inserted nothing
	}

	got := make([]uint64, 0, len(ops))
	seqs := make([]int, 0, len(ops))
	b.OnDone(func(seq int, ret uint64) {
		seqs = append(seqs, seq)
		got = append(got, ret)
	})
	for _, o := range ops {
		switch o.kind {
		case 'g':
			b.Get(o.key)
		case 's':
			b.Set(o.key, o.val)
		case 'x':
			b.SetTTL(o.key, o.val, 1<<20)
		case 't':
			b.Touch(o.key, o.val)
		}
	}
	b.Flush()
	if b.InFlight() != 0 {
		t.Fatalf("in flight after flush: %d", b.InFlight())
	}
	if len(got) != len(ops) {
		t.Fatalf("completions: %d, want %d", len(got), len(ops))
	}
	for i, o := range ops {
		if seqs[i] != i {
			t.Fatalf("seq[%d] = %d", i, seqs[i])
		}
		if got[i] != o.want {
			t.Fatalf("op %d (%c key=%d): ret %d, want %d", i, o.kind, o.key, got[i], o.want)
		}
	}

	// Seq numbering resets across Flush.
	b.Get(4)
	b.Flush()
	if seqs[len(seqs)-1] != 0 {
		t.Fatalf("seq after flush = %d, want 0", seqs[len(seqs)-1])
	}
	if got[len(got)-1] != 400 {
		t.Fatalf("value after flush = %d", got[len(got)-1])
	}
}

// TestBatchClientAllocFree pins the submit/flush cycle at zero
// allocations per batch.
func TestBatchClientAllocFree(t *testing.T) {
	_, b := newBatchKV(t, 8)
	var sink uint64
	b.OnDone(func(_ int, ret uint64) { sink += ret })
	n := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 32; k++ {
			b.Set(k, k+1)
			b.Get(k)
		}
		b.Flush()
	})
	if n != 0 {
		t.Fatalf("batch cycle allocates %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// TestBatchClientChurnAllocFree is TestKVStoreChurnAllocFree's cycle
// through the delegation server: inserts that evict, expiries the
// server's background hook fires, deletes and re-inserts allocate
// nothing on either side of the window.
func TestBatchClientChurnAllocFree(t *testing.T) {
	const capacity = 256
	d := NewDelegatedKV(capacity, 4)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	b, err := d.NewBatchClient(8)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	b.OnDone(func(int, uint64) {})
	for k := uint64(0); k < capacity; k++ {
		b.Set(k, k)
	}
	b.Flush()
	k, tick := uint64(capacity), uint64(0)
	cycle := func() {
		b.Set(k, 1)
		b.SetTTL(k+1, 2, 3)
		b.Flush()
		tick += 4
		c.AdvanceClock(tick)
		c.Delete(k)
		b.Set(k, 3)
		b.Touch(k, 1<<20)
		b.Get(k + 2)
		b.Flush()
		k += 4
	}
	cycle()
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("churn cycle allocates %.2f objects per run, want 0", n)
	}
	if _, _, evictions, _ := c.Stats(); evictions == 0 {
		t.Fatal("the cycle never evicted")
	}
}

// TestKVMultiGet: a multi-get is its keys' gets through the window, then
// one flush — values in key order, the miss sentinel for absent keys, and
// each miss counted once in the store statistics.
func TestKVMultiGet(t *testing.T) {
	d, b := newBatchKV(t, 4)
	var rets []uint64
	b.OnDone(func(_ int, ret uint64) { rets = append(rets, ret) })
	for k := uint64(0); k < 100; k += 2 {
		b.Set(k, k*10)
	}
	b.Flush()
	rets = rets[:0]
	for k := uint64(0); k < 100; k++ {
		b.Get(k)
	}
	b.Flush()
	if len(rets) != 100 {
		t.Fatalf("multi-get completions: %d, want 100", len(rets))
	}
	for k, ret := range rets {
		want := uint64(k * 10)
		if k%2 != 0 {
			want = kvMissSentinel
		}
		if ret != want {
			t.Fatalf("key %d = %d, want %d", k, ret, want)
		}
	}
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, evictions, expired := c.Stats(); hits != 50 || misses != 50 || evictions != 0 || expired != 0 {
		t.Fatalf("Stats = %d %d %d %d, want 50 50 0 0 (hits misses evictions expired)", hits, misses, evictions, expired)
	}
}

func TestKVMultiGetAllocationFree(t *testing.T) {
	_, b := newBatchKV(t, 8)
	var sink uint64
	b.OnDone(func(_ int, ret uint64) { sink += ret })
	multiGet := func() {
		for k := uint64(0); k < 32; k++ {
			b.Get(k)
		}
		b.Flush()
	}
	multiGet() // warm up
	if allocs := testing.AllocsPerRun(100, multiGet); allocs > 0 {
		t.Fatalf("multi-get allocates %.2f objects per call, want 0", allocs)
	}
	_ = sink
}

// TestBatchClientWindowOne degenerates to synchronous delegation.
func TestBatchClientWindowOne(t *testing.T) {
	_, b := newBatchKV(t, 1)
	var rets []uint64
	b.OnDone(func(_ int, ret uint64) { rets = append(rets, ret) })
	b.Set(9, 90)
	b.Get(9)
	b.Flush()
	if len(rets) != 2 || rets[1] != 90 {
		t.Fatalf("rets = %v", rets)
	}
}

// The miss sentinel the delegated KV's clients return is the same
// reserved value the wire protocol names: the frontend refuses a set of
// it, so no value stored over the wire reads back as a miss.
func TestMissSentinelMatchesWireProto(t *testing.T) {
	if kvMissSentinel != wireproto.MissValue {
		t.Fatalf("kvMissSentinel %x != wireproto.MissValue %x", uint64(kvMissSentinel), wireproto.MissValue)
	}
}
