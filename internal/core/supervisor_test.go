package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/fault"
	"ffwd/internal/obs"
)

// TestSupervisorIgnoresDeliberateStop: supervision repairs crashes, not
// intent — a server stopped on purpose must stay stopped.
func TestSupervisorIgnoresDeliberateStop(t *testing.T) {
	s := NewServer(Config{MaxClients: 1})
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { return 1 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	sv := NewSupervisor(s, SupervisorConfig{Interval: time.Millisecond})
	sv.Start()
	defer sv.Stop()

	c := s.MustNewClient()
	defer c.Close()
	if got := c.Delegate0(inc); got != 1 {
		t.Fatalf("warmup delegate returned %d", got)
	}
	s.Stop()
	time.Sleep(25 * time.Millisecond) // many supervision intervals
	if s.Alive() {
		t.Fatal("supervisor resurrected a deliberately stopped server")
	}
	if st := s.Stats(); st.Restarts != 0 {
		t.Fatalf("Restarts = %d after a deliberate stop, want 0", st.Restarts)
	}
}

// TestSupervisorCountsHeartbeatMisses: a server stuck inside a delegated
// function is unparked with a stalled sweep counter; the supervisor must
// record the misses (it cannot restart a live goroutine, but the stall
// becomes observable).
func TestSupervisorCountsHeartbeatMisses(t *testing.T) {
	s := NewServer(Config{MaxClients: 1})
	slow := s.Register(func(*[MaxArgs]uint64) uint64 {
		time.Sleep(60 * time.Millisecond)
		return 9
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	sv := NewSupervisor(s, SupervisorConfig{Interval: time.Millisecond, KickAfter: 2})
	sv.Start()
	defer sv.Stop()

	c := s.MustNewClient()
	defer c.Close()
	got, err := c.DelegateTimeout(2*time.Second, slow)
	if err != nil || got != 9 {
		t.Fatalf("slow delegate: got %d, err %v", got, err)
	}
	if st := s.Stats(); st.HeartbeatMisses == 0 {
		t.Fatal("a 60ms wedge inside a delegated call produced no heartbeat misses")
	}
}

// TestCloseVsRestartRetiredSlotAccounting hammers the one interleaving
// the retire path is exposed to: a client whose bounded wait timed out
// across a crash calls Close while a supervisor-style restart is
// concurrently relaunching the server — whose first sweep may flush the
// very response Close is deciding the slot's fate on. Whatever the
// interleaving, the accounting must stay coherent: every slot is either
// allocatable exactly once or counted in AbandonedSlots, never both and
// never neither, and when the late response demonstrably landed before
// Close finished, the slot should be reclaimed rather than leaked.
func TestCloseVsRestartRetiredSlotAccounting(t *testing.T) {
	for iter := 0; iter < 60; iter++ {
		s := NewServer(Config{MaxClients: 2, Hooks: fault.New(fault.Plan{KillAtOp: 1})})
		maxClients := s.MaxClients() // config rounds up to a full group
		fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 7 })
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		c := s.MustNewClient()
		c.Issue(fid)
		if _, err := c.WaitFor(500 * time.Millisecond); err == nil {
			t.Fatalf("iter %d: wait across the kill unexpectedly succeeded", iter)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.Close()
		}()
		go func() {
			defer wg.Done()
			for !s.RestartIfCrashed() {
				runtime.Gosched()
			}
		}()
		wg.Wait()
		// Allocate until exhaustion: retired + allocatable must cover the
		// slot space exactly, with no slot handed out twice.
		seen := make(map[int]bool)
		n := 0
		for {
			cl, err := s.NewClient()
			if err != nil {
				break
			}
			if seen[cl.Slot()] {
				t.Fatalf("iter %d: slot %d allocated twice", iter, cl.Slot())
			}
			seen[cl.Slot()] = true
			n++
			if n > maxClients {
				t.Fatalf("iter %d: allocated %d clients from %d slots", iter, n, maxClients)
			}
		}
		st := s.Stats()
		if n+int(st.AbandonedSlots) != maxClients {
			t.Fatalf("iter %d: %d allocatable + %d retired != %d slots",
				iter, n, st.AbandonedSlots, maxClients)
		}
		s.Stop()
	}
}

// holdCrash is a tracer that holds the dying server goroutine inside its
// crash event, between the crash record and the close of its done
// channel: the window in which Crashed answers false.
type holdCrash struct {
	seen    chan struct{}
	release chan struct{}
}

func (h *holdCrash) Event(k obs.Kind, _ int32, _ uint64) {
	if k == obs.KindCrash {
		close(h.seen)
		<-h.release
	}
}
func (h *holdCrash) Now() int64             { return 0 }
func (h *holdCrash) EventBatch([]obs.Event) {}

// TestSupervisorHandsOffCrashSeenUnwinding: checks that land while the
// crashed goroutine is still unwinding neither hand the crash off nor
// restart the server; once it is down, OnCrash gets it and the server
// is never restarted behind its back.
func TestSupervisorHandsOffCrashSeenUnwinding(t *testing.T) {
	h := &holdCrash{seen: make(chan struct{}), release: make(chan struct{})}
	s := NewServer(Config{MaxClients: 1, Hooks: fault.New(fault.Plan{KillAtOp: 1}), Trace: h})
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { return 1 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var handoffs atomic.Int32
	sv := NewSupervisor(s, SupervisorConfig{
		Interval: 100 * time.Microsecond,
		OnCrash:  func() bool { handoffs.Add(1); return true },
	})
	sv.Start()
	defer sv.Stop()

	c := s.MustNewClient()
	c.Issue(inc) // the kill point fires on this op; its answer never comes
	<-h.seen
	time.Sleep(10 * time.Millisecond) // many checks inside the window
	if n, r := handoffs.Load(), s.Stats().Restarts; n != 0 || r != 0 {
		t.Fatalf("while unwinding: %d hand-offs, %d restarts; want none", n, r)
	}
	close(h.release)
	deadline := time.Now().Add(5 * time.Second)
	for handoffs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the crash was never handed off")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if n, r := handoffs.Load(), s.Stats().Restarts; n != 1 || r != 0 {
		t.Fatalf("after unwinding: %d hand-offs, %d restarts; want 1 and 0", n, r)
	}
}
