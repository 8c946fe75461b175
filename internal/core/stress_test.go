package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestDelegationMatchesLocalComputation is the linearizability property
// test: a random sequence of commutative operations applied through
// delegation from many goroutines must leave the server-owned state
// exactly as the same multiset of operations applied locally.
func TestDelegationMatchesLocalComputation(t *testing.T) {
	f := func(seed int64) bool {
		const workers, opsEach = 6, 400
		s := NewServer(Config{MaxClients: workers})
		var sum, xor, count uint64
		apply := s.Register(func(a *[MaxArgs]uint64) uint64 {
			sum += a[0]
			xor ^= a[1]
			count++
			return count
		})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		// Precompute each worker's operation stream and the expected
		// combined effect.
		var wantSum, wantXor uint64
		streams := make([][][2]uint64, workers)
		rng := rand.New(rand.NewSource(seed))
		for w := range streams {
			streams[w] = make([][2]uint64, opsEach)
			for i := range streams[w] {
				a, b := rng.Uint64()>>1, rng.Uint64()
				streams[w][i] = [2]uint64{a, b}
				wantSum += a
				wantXor ^= b
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ops [][2]uint64) {
				defer wg.Done()
				c := s.MustNewClient()
				for _, op := range ops {
					c.Delegate2(apply, op[0], op[1])
				}
			}(streams[w])
		}
		wg.Wait()
		s.Stop()
		return sum == wantSum && xor == wantXor && count == workers*opsEach
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestResponsesRoutedToIssuer checks channel isolation: with many clients
// hammering concurrently, each must receive exactly its own function's
// result (a mis-routed response would surface as a foreign tag).
func TestResponsesRoutedToIssuer(t *testing.T) {
	const workers, iters = 16, 4000
	s := NewServer(Config{MaxClients: workers})
	echo := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		tag := uint64(w+1) << 32
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			for i := uint64(0); i < iters; i++ {
				want := tag | i
				if got := c.Delegate1(echo, want); got != want {
					t.Errorf("client got %x, want %x (response mis-routed)", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegisterRacesWithTraffic registers new functions while clients are
// delegating: old ids must keep working and new ids become callable.
func TestRegisterRacesWithTraffic(t *testing.T) {
	s := NewServer(Config{MaxClients: 4})
	base := s.Register(func(*[MaxArgs]uint64) uint64 { return 7 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := c.Delegate0(base); got != 7 {
					t.Errorf("base func returned %d during registration churn", got)
					return
				}
			}
		}()
	}
	c := s.MustNewClient()
	for i := uint64(1); i <= 200; i++ {
		i := i
		fid := s.Register(func(*[MaxArgs]uint64) uint64 { return i })
		if got := c.Delegate0(fid); got != i {
			t.Fatalf("new func %d returned %d", i, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStopDrainsOutstanding: requests issued before Stop must complete.
func TestStopDrainsOutstanding(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := NewServer(Config{MaxClients: 2})
		var n uint64
		inc := s.Register(func(*[MaxArgs]uint64) uint64 { n++; return n })
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		c := s.MustNewClient()
		c.Issue(inc)
		// Stop while the request may still be in flight; the final
		// sweep must serve it so Wait cannot hang.
		done := make(chan uint64, 1)
		go func() { done <- c.Wait() }()
		s.Stop()
		if got := <-done; got != 1 {
			t.Fatalf("drained request returned %d", got)
		}
	}
}

// TestPartlyOccupiedGroups drives three response groups concurrently,
// the last one partly occupied: every group flushes its own line, and the
// sweep must serve the trailing group's slots without touching its empty
// ones.
func TestPartlyOccupiedGroups(t *testing.T) {
	const workers, iters = 2*GroupSize + 3, 500
	s := NewServer(Config{MaxClients: workers})
	if got := s.MaxClients(); got != 3*GroupSize {
		t.Fatalf("MaxClients = %d, want %d (three whole groups)", got, 3*GroupSize)
	}
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := s.MustNewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Delegate0(inc)
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
	// Every sweep passes over at least the last group's empty slots.
	if st := s.Stats(); st.SlotsSkipped < st.Sweeps*(GroupSize-3) {
		t.Fatalf("SlotsSkipped = %d over %d sweeps, want >= %d per sweep", st.SlotsSkipped, st.Sweeps, GroupSize-3)
	}
}

// TestPanickingFuncDoesNotKillServer: a broken delegated function answers
// with the sentinel and the server keeps serving everyone else.
func TestPanickingFuncDoesNotKillServer(t *testing.T) {
	s := NewServer(Config{MaxClients: 2})
	boom := s.Register(func(*[MaxArgs]uint64) uint64 { panic("delegated bug") })
	ok := s.Register(func(*[MaxArgs]uint64) uint64 { return 42 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	c := s.MustNewClient()
	if got := c.Delegate0(boom); got != ^uint64(0) {
		t.Fatalf("panicking func returned %d, want sentinel", got)
	}
	for i := 0; i < 100; i++ {
		if got := c.Delegate0(ok); got != 42 {
			t.Fatalf("healthy func returned %d after a panic", got)
		}
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", st.Panics)
	}
}

// TestParkWakeCloseIssueChurn: regression for the park/retract window.
// Clients are created, delegate once, and close in a tight loop while an
// aggressively parking server (IdleParkAfter: 1) descends and retracts
// concurrently with persistent issuers. Every operation must land exactly
// once — a lost wake or a response routed to a recycled slot shows up as
// a wrong counter or a hang.
func TestParkWakeCloseIssueChurn(t *testing.T) {
	s := NewServer(Config{MaxClients: 15, IdleParkAfter: 1})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 {
		counter++
		return counter
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	const churners, churnOps = 2, 500
	const issuers, issueOps = 2, 2000
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < churnOps; i++ {
				c := s.MustNewClient()
				if got := c.Delegate0(inc); got == 0 {
					t.Error("churn delegate returned 0")
				}
				c.Close()
			}
		}()
	}
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			defer c.Close()
			for i := 0; i < issueOps; i++ {
				if got := c.Delegate0(inc); got == 0 {
					t.Error("issuer delegate returned 0")
				}
			}
		}()
	}
	wg.Wait()
	if want := uint64(churners*churnOps + issuers*issueOps); counter != want {
		t.Fatalf("counter = %d, want %d (lost or duplicated operations)", counter, want)
	}
}
