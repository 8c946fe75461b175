package core

import (
	"sync"
	"testing"
	"time"
)

// --- occupancy-tracked sweeps ---

func TestSweepSkipsUnseededSlots(t *testing.T) {
	// 60 slots, 1 client: every sweep must skip the 59 unallocated
	// slots (45 of them without even loading the trailing groups'
	// occupancy words).
	s := startServer(t, Config{MaxClients: 60})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 1 })
	c := s.MustNewClient()
	for i := 0; i < 100; i++ {
		if got := c.Delegate0(fid); got != 1 {
			t.Fatalf("Delegate0 = %d", got)
		}
	}
	st := s.Stats()
	if st.SlotsSkipped == 0 {
		t.Fatal("SlotsSkipped = 0; sweeps are still touching unallocated slots")
	}
	// Every sweep has 59 unoccupied slots; the counter must reflect at
	// least one sweep's worth of full skipping.
	if st.SlotsSkipped < 59 {
		t.Fatalf("SlotsSkipped = %d, want >= 59", st.SlotsSkipped)
	}
}

func TestOccupancyTracksCloseAndReuse(t *testing.T) {
	s := startServer(t, Config{MaxClients: 15})
	var calls uint64
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { calls++; return calls })
	c := s.MustNewClient()
	slot := c.Slot()
	// An odd number of delegations leaves the slot's toggle at 1; the
	// next owner must adopt it or its first request would be invisible
	// (or a phantom request would be served).
	for i := 0; i < 3; i++ {
		c.Delegate0(fid)
	}
	c.Close()
	c2 := s.MustNewClient()
	if c2.Slot() != slot {
		t.Fatalf("recycled slot = %d, want %d", c2.Slot(), slot)
	}
	if got := c2.Delegate0(fid); got != 4 {
		t.Fatalf("first Delegate0 on recycled slot = %d, want 4", got)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (phantom request served?)", calls)
	}
}

func TestCloseWhilePendingPanics(t *testing.T) {
	s := startServer(t, Config{})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 0 })
	c := s.MustNewClient()
	c.Issue(fid)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Close with a request in flight did not panic")
			}
		}()
		c.Close()
	}()
	c.Wait()
	c.Close()
	c.Close() // idempotent
}

func TestClientChurnUnderLoad(t *testing.T) {
	// Allocate/delegate/Close continuously from several goroutines while
	// the server sweeps: occupancy set/clear must never lose a request
	// or leak a slot.
	const workers, rounds = 4, 200
	s := startServer(t, Config{MaxClients: workers})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := s.MustNewClient()
				c.Delegate0(inc)
				c.Close()
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if counter != workers*rounds {
		t.Fatalf("counter = %d, want %d", counter, workers*rounds)
	}
}

// --- slot allocation: exhaustion must be non-destructive ---

func TestExhaustionDoesNotConsumeSlots(t *testing.T) {
	s := NewServer(Config{MaxClients: 2, GroupSizeOverride: 2})
	c1 := s.MustNewClient()
	s.MustNewClient()
	// Repeated failed allocations must not burn capacity.
	for i := 0; i < 10; i++ {
		if _, err := s.NewClient(); err != ErrNoSlots {
			t.Fatalf("NewClient on full server: err = %v, want ErrNoSlots", err)
		}
	}
	c1.Close()
	c3, err := s.NewClient()
	if err != nil {
		t.Fatalf("NewClient after Close failed: %v (exhaustion destroyed a slot)", err)
	}
	if c3.Slot() != c1.Slot() {
		t.Fatalf("reused slot = %d, want %d", c3.Slot(), c1.Slot())
	}
}

func TestPoolNewClientPartialFailureReleasesSlots(t *testing.T) {
	p := NewPool(2, Config{MaxClients: 2, GroupSizeOverride: 2})
	// Exhaust server 1 directly so Pool.NewClient fails partway, after
	// it has already taken a slot on server 0.
	p.Server(1).MustNewClient()
	p.Server(1).MustNewClient()
	if _, err := p.NewClient(); err != ErrNoSlots {
		t.Fatalf("Pool.NewClient = %v, want ErrNoSlots", err)
	}
	// Server 0 must have all its slots back.
	for i := 0; i < 2; i++ {
		if _, err := p.Server(0).NewClient(); err != nil {
			t.Fatalf("server 0 slot %d leaked by failed Pool.NewClient: %v", i, err)
		}
	}
}

// --- adaptive idle policy: spin → yield → park ---

// waitForParked polls until the server has parked at least once.
func waitForParked(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().IdleParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never parked while idle")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIdleServerParksInsteadOfSpinning(t *testing.T) {
	s := startServer(t, Config{IdleParkAfter: 8})
	waitForParked(t, s)
	// A parked server does no sweeps: the counter must freeze.
	before := s.Stats().Sweeps
	time.Sleep(20 * time.Millisecond)
	if after := s.Stats().Sweeps; after != before {
		t.Fatalf("parked server kept sweeping: %d -> %d", before, after)
	}
}

func TestIssueWakesParkedServer(t *testing.T) {
	s := startServer(t, Config{IdleParkAfter: 8})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] + 1 })
	c := s.MustNewClient()
	waitForParked(t, s)
	// The server is blocked on its notification word; this Issue must
	// wake it or Wait hangs (the test would time out).
	if got := c.Delegate1(fid, 41); got != 42 {
		t.Fatalf("Delegate1 after park = %d, want 42", got)
	}
	if st := s.Stats(); st.Wakes == 0 {
		t.Fatalf("Wakes = 0 after delegating to a parked server (stats: %+v)", st)
	}
}

func TestParkWakeStress(t *testing.T) {
	// IdleParkAfter=1 parks at every idle gap, maximizing park/wake
	// races with issuing clients.
	const workers, iters = 4, 2000
	s := NewServer(Config{MaxClients: workers, IdleParkAfter: 1})
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
				c.Delegate0(inc)
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (request lost across park/wake)", counter, workers*iters)
	}
}

func TestParkDisabled(t *testing.T) {
	s := startServer(t, Config{IdleParkAfter: -1})
	time.Sleep(20 * time.Millisecond)
	if st := s.Stats(); st.IdleParks != 0 {
		t.Fatalf("IdleParks = %d with parking disabled", st.IdleParks)
	}
	if st := s.Stats(); st.IdleYields == 0 {
		t.Fatal("IdleYields = 0; idle server neither parked nor yielded")
	}
}

func TestStopWakesParkedServer(t *testing.T) {
	s := NewServer(Config{IdleParkAfter: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitForParked(t, s)
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a parked server")
	}
}

func TestRestartAfterPark(t *testing.T) {
	s := NewServer(Config{IdleParkAfter: 4})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 9 })
	for round := 0; round < 3; round++ {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		waitForParked(t, s)
		c := s.MustNewClient()
		if got := c.Delegate0(fid); got != 9 {
			t.Fatalf("round %d: Delegate0 = %d", round, got)
		}
		c.Close()
		s.Stop()
	}
}

// --- lifecycle: Start/Stop must be safe from any goroutine ---

func TestStartStopConcurrent(t *testing.T) {
	s := NewServer(Config{IdleParkAfter: 2})
	fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 3 })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Start() // errors (already running) are expected
				s.Stop()
			}
		}()
	}
	wg.Wait()
	// The server must be cleanly restartable afterwards.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := s.MustNewClient()
	if got := c.Delegate0(fid); got != 3 {
		t.Fatalf("Delegate0 after Start/Stop churn = %d", got)
	}
	s.Stop()
}

// --- pipelined delegation ---

func TestAsyncGroupFixedArityForms(t *testing.T) {
	s := startServer(t, Config{MaxClients: 3})
	sum := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] + a[1] + a[2] })
	g, err := NewAsyncGroup(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	var results []uint64
	collect := func(r uint64) { results = append(results, r) }
	for i := 0; i < 20; i++ {
		if r, ok := g.Submit0(sum); ok {
			collect(r)
		}
		if r, ok := g.Submit1(sum, 1); ok {
			collect(r)
		}
		if r, ok := g.Submit2(sum, 1, 2); ok {
			collect(r)
		}
		if r, ok := g.Submit3(sum, 1, 2, 3); ok {
			collect(r)
		}
	}
	g.Flush(collect)
	if len(results) != 80 {
		t.Fatalf("collected %d results, want 80", len(results))
	}
	// Issue order is preserved, so results cycle 0,1,3,6.
	want := []uint64{0, 1, 3, 6}
	for i, r := range results {
		if r != want[i%4] {
			t.Fatalf("result[%d] = %d, want %d", i, r, want[i%4])
		}
	}
}

// --- allocation guarantees on every fast path ---

func TestHotPathsAllocationFree(t *testing.T) {
	s := startServer(t, Config{MaxClients: 8})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	c := s.MustNewClient()
	g, err := NewAsyncGroup(s, 2)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(2, Config{MaxClients: 4})
	pfid := p.RegisterAll(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	if err := p.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer p.StopAll()
	pc := p.MustNewClient()

	// Force the one-time per-goroutine runtime timer allocation now so a
	// Wait that reaches the sleep rung inside AllocsPerRun cannot be
	// charged for it.
	time.Sleep(time.Microsecond)

	cases := []struct {
		name string
		op   func()
	}{
		{"Delegate0", func() { c.Delegate0(fid) }},
		{"Delegate1", func() { c.Delegate1(fid, 1) }},
		{"Delegate2", func() { c.Delegate2(fid, 1, 2) }},
		{"Delegate3", func() { c.Delegate3(fid, 1, 2, 3) }},
		// The variadic forms: their argument slice does not escape, so it
		// stays on the caller's stack.
		{"DelegateVariadic", func() { c.Delegate(fid, 1, 2) }},
		{"IssueWait", func() { c.issueHdr(fid, 0); c.Wait() }},
		{"AsyncSubmit2", func() { g.Submit2(fid, 1, 2) }},
		{"AsyncSubmitVariadic", func() { g.Submit(fid, 1, 2) }},
		{"PoolDelegate0", func() { pc.Delegate0(3, pfid) }},
		{"PoolDelegate1", func() { pc.Delegate1(3, pfid, 1) }},
		{"PoolDelegate2", func() { pc.Delegate2(3, pfid, 1, 2) }},
		{"PoolDelegate3", func() { pc.Delegate3(3, pfid, 1, 2, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.op() // warm up
			if allocs := testing.AllocsPerRun(200, tc.op); allocs > 0 {
				t.Errorf("%s allocates %.2f objects per op, want 0", tc.name, allocs)
			}
		})
	}
	g.Flush(nil)
}
