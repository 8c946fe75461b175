package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"ffwd/internal/fault"
)

// Unit tests for the exactly-once surface: the per-slot sequence stamp,
// the server's last-applied ledger, and the RetryPolicy delegates.

// TestLedgerFencesCrashRedelivery is the deterministic single-op version
// of the exactly-once story: a non-idempotent op is executed, the server
// is killed before the response flush, and the manually restarted server
// must answer the re-delivered request from the ledger — same result, no
// second application, LedgerSkips exactly 1.
func TestLedgerFencesCrashRedelivery(t *testing.T) {
	s := NewServer(Config{MaxClients: 1, Hooks: fault.New(fault.Plan{KillAtOp: 1})})
	var applied int
	inc := s.Register(func(*[MaxArgs]uint64) uint64 {
		applied++
		return uint64(applied)
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	c := s.MustNewClient()
	defer c.Close()
	c.Issue(inc)
	// The kill eats the response: the bounded wait must fail, not hang.
	if _, err := c.WaitFor(500 * time.Millisecond); !errors.Is(err, ErrServerStopped) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("wait across the kill: %v, want ErrServerStopped/ErrTimeout", err)
	}
	for !s.RestartIfCrashed() {
		time.Sleep(100 * time.Microsecond) // goroutine still unwinding
	}
	got, err := c.WaitFor(2 * time.Second)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if got != 1 {
		t.Fatalf("re-delivered op returned %d, want the ledgered first application", got)
	}
	if applied != 1 {
		t.Fatalf("delegated function applied %d times, want exactly once", applied)
	}
	st := s.Stats()
	if st.LedgerSkips != 1 {
		t.Fatalf("LedgerSkips = %d, want 1", st.LedgerSkips)
	}
	// The channel is coherent and the fence does not eat fresh requests:
	// the next op is a new sequence number and really executes.
	if got := c.Delegate0(inc); got != 2 || applied != 2 {
		t.Fatalf("post-recovery op: got %d applied %d, want 2/2", got, applied)
	}
}

// TestLedgerGroupFlushCrashRedelivery pins exactly-once at group-flush
// granularity: three requests of one response group are picked up by one
// sweep and the injected kill fires before the group's single
// write-combined response flush, so the crash loses every response at
// once. After the restart each request that ran must be answered from the
// ledger without a second application. From three plain clients the kill
// fires on the third request, after all three applied records landed.
// From one window it fires on the second, so the restarted server replays
// two and must then run the third — a replay that moved the window's
// cursor would leave it waiting forever — and the window must keep
// executing in submit order afterwards.
func TestLedgerGroupFlushCrashRedelivery(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name   string
		window bool
		killAt int
	}{{"clients", false, n}, {"window", true, n - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{MaxClients: n, Hooks: fault.New(fault.Plan{KillAtOp: uint64(tc.killAt)})})
			var applied [n]int
			var order []int
			fids := make([]FuncID, n)
			for i := range fids {
				i := i
				fids[i] = s.Register(func(*[MaxArgs]uint64) uint64 {
					applied[i]++
					order = append(order, i)
					return uint64(100*(i+1) + applied[i])
				})
			}
			// Issue all three before Start so one sweep picks up the whole
			// group. collect gathers what has completed, in issue order.
			var collect func(time.Duration) ([]uint64, error)
			var g *AsyncGroup
			if tc.window {
				var err error
				if g, err = NewAsyncGroup(s, n); err != nil {
					t.Fatal(err)
				}
				for _, fid := range fids {
					g.Submit(fid)
				}
				collect = func(d time.Duration) (got []uint64, err error) {
					err = g.FlushTimeout(d, func(r uint64) { got = append(got, r) })
					return got, err
				}
			} else {
				clients := make([]*Client, n)
				for i := range clients {
					clients[i] = s.MustNewClient()
					defer clients[i].Close()
					clients[i].Issue(fids[i])
				}
				collect = func(d time.Duration) (got []uint64, first error) {
					for _, c := range clients {
						if r, err := c.WaitFor(d); err == nil {
							got = append(got, r)
						} else if first == nil {
							first = err
						}
					}
					return got, first
				}
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()

			// The kill ate the group flush: every wait must fail, not hang.
			if got, err := collect(500 * time.Millisecond); len(got) != 0 || (!errors.Is(err, ErrServerStopped) && !errors.Is(err, ErrTimeout)) {
				t.Fatalf("wait across the kill: %v, %v; want nothing and ErrServerStopped/ErrTimeout", got, err)
			}
			for !s.RestartIfCrashed() {
				time.Sleep(100 * time.Microsecond) // goroutine still unwinding
			}
			got, err := collect(2 * time.Second)
			if want := []uint64{101, 201, 301}; err != nil || !slices.Equal(got, want) {
				t.Fatalf("after restart: %v, %v; want each first application %v", got, err, want)
			}
			if st := s.Stats(); st.LedgerSkips != uint64(tc.killAt) {
				t.Fatalf("LedgerSkips = %d, want %d (one per re-delivered request)", st.LedgerSkips, tc.killAt)
			}
			if g != nil {
				for round := 0; round < 2; round++ {
					for _, fid := range fids {
						g.Submit(fid)
					}
				}
				g.Flush(nil)
				g.Close()
			}
			s.Stop()
			for i, a := range applied {
				if want := len(order) / n; a != want {
					t.Fatalf("function %d applied %d times, want %d: exactly once per request", i, a, want)
				}
			}
			for j, i := range order {
				if i != j%n {
					t.Fatalf("executed in order %v, want 0 1 2 repeating", order)
				}
			}
		})
	}
}

// TestLedgerSeqSurvivesSlotRecycling: a slot's sequence numbering must
// continue across Close/NewClient, or the ledger would mistake the new
// owner's fresh requests for duplicates and starve them of execution.
func TestLedgerSeqSurvivesSlotRecycling(t *testing.T) {
	s := NewServer(Config{MaxClients: 1})
	var applied int
	inc := s.Register(func(*[MaxArgs]uint64) uint64 {
		applied++
		return uint64(applied)
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	for owner := 1; owner <= 3; owner++ {
		c := s.MustNewClient()
		if got := c.Delegate0(inc); int(got) != owner {
			t.Fatalf("owner %d: got %d, want a fresh application (not a ledger replay)", owner, got)
		}
		c.Close()
	}
	if applied != 3 {
		t.Fatalf("applied %d times across 3 owners, want 3", applied)
	}
	if st := s.Stats(); st.LedgerSkips != 0 {
		t.Fatalf("LedgerSkips = %d on a crash-free run, want 0", st.LedgerSkips)
	}
}

// TestDelegateRetryRidesOutDeliberateStop: DelegateRetry must keep
// re-waiting the same issued request across a stop/start window and
// return its single application.
func TestDelegateRetryRidesOutDeliberateStop(t *testing.T) {
	s := NewServer(Config{MaxClients: 1})
	var applied int
	inc := s.Register(func(*[MaxArgs]uint64) uint64 {
		applied++
		return uint64(applied)
	})
	c := s.MustNewClient()
	defer c.Close()

	// The server starts 20ms after the retry loop begins: early attempts
	// fail with ErrServerStopped, later ones complete the op.
	go func() {
		time.Sleep(20 * time.Millisecond)
		if err := s.Start(); err != nil {
			t.Error(err)
		}
	}()
	defer s.Stop()
	got, err := c.DelegateRetry(RetryPolicy{MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		2*time.Millisecond, inc)
	if err != nil {
		t.Fatalf("DelegateRetry: %v", err)
	}
	if got != 1 || applied != 1 {
		t.Fatalf("got %d applied %d, want exactly one application", got, applied)
	}
	if s.Stats().RetryWaits == 0 {
		t.Fatal("RetryWaits = 0: the stopped-server window was never retried through")
	}
}

// TestDelegateRetryExhaustsBounded: against a server that never runs,
// DelegateRetry must return the last error after its attempt budget —
// promptly, with the request left abandoned for a later drain.
func TestDelegateRetryExhaustsBounded(t *testing.T) {
	s := NewServer(Config{MaxClients: 1})
	echo := s.Register(boundedEcho)
	c := s.MustNewClient()

	start := time.Now()
	_, err := c.DelegateRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		time.Millisecond, echo, 9)
	if !errors.Is(err, ErrServerStopped) {
		t.Fatalf("err = %v, want ErrServerStopped", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("exhaustion was not bounded")
	}
	if !c.pending || !c.abandoned {
		t.Fatal("exhausted request not left pending+abandoned")
	}
	// The abandoned request drains once the server runs; a subsequent
	// DelegateRetry discards it and completes its own op.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	got, err := c.DelegateRetry(RetryPolicy{}, time.Second, echo, 11)
	if err != nil || got != 11 {
		t.Fatalf("retry after restart: got %d err %v, want 11", got, err)
	}
	c.Close()
}

// TestRetryPolicyBackoffBounds: the jittered exponential steps stay
// within (0, MaxDelay] and reach the cap.
func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}.withDefaults()
	rng := uint64(42)
	hitCapRegion := false
	for attempt := 1; attempt < 64; attempt++ {
		d := p.backoff(attempt, &rng)
		if d <= 0 || d > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, p.MaxDelay)
		}
		if d > p.MaxDelay/2 {
			hitCapRegion = true
		}
	}
	if !hitCapRegion {
		t.Fatal("backoff never approached the cap")
	}
}

// TestLedgerSeqAdoptionRecycleTimeout covers seq adoption across slot
// recycling when the adopting client's very first op immediately times
// out: A performs exactly one op (ledger now holds seq 1 for the slot)
// and closes; B adopts the slot, and B's first delegation is executed
// but killed before its flush, so B's bounded wait fails. After the
// restart, B's re-wait must be answered from the ledger with B's OWN
// application. If adoption were broken (B restarting at seq 1), the
// sweep would instead fence B's request as a duplicate of A's and
// replay A's result without ever executing — caught below by both the
// return value and the application count.
func TestLedgerSeqAdoptionRecycleTimeout(t *testing.T) {
	s := NewServer(Config{MaxClients: 1, Hooks: fault.New(fault.Plan{KillAtOp: 2})})
	var applied int
	inc := s.Register(func(*[MaxArgs]uint64) uint64 {
		applied++
		return uint64(applied)
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	a := s.MustNewClient()
	if got := a.Delegate0(inc); got != 1 {
		t.Fatalf("first owner's op returned %d, want 1", got)
	}
	a.Close()

	b := s.MustNewClient()
	if b.Slot() != 0 {
		t.Fatalf("second owner got slot %d, want the recycled slot 0", b.Slot())
	}
	// B's first op is global op 2: executed, ledgered, then the kill
	// eats the flush — the adopting client immediately times out.
	if _, err := b.DelegateTimeout(500*time.Millisecond, inc); err == nil {
		t.Fatal("delegation across the kill unexpectedly succeeded")
	}
	for !s.RestartIfCrashed() {
		time.Sleep(100 * time.Microsecond)
	}
	got, err := b.WaitFor(2 * time.Second)
	if err != nil {
		t.Fatalf("retry wait after restart: %v", err)
	}
	if got != 2 {
		t.Fatalf("retried op returned %d, want B's own application 2 (1 would be A's replayed result)", got)
	}
	if applied != 2 {
		t.Fatalf("applied %d times, want 2 — adoption must not fence B's fresh op", applied)
	}
	if st := s.Stats(); st.LedgerSkips != 1 {
		t.Fatalf("LedgerSkips = %d, want exactly the one re-delivery", st.LedgerSkips)
	}
	// Seq keeps counting: the next op executes for real.
	if got := b.Delegate0(inc); got != 3 || applied != 3 {
		t.Fatalf("post-recovery op: got %d applied %d, want 3/3", got, applied)
	}
}
