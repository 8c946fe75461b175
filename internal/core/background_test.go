package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The Background hook must run on empty sweeps, drain its backlog within
// the per-sweep budget, and still let the idle ladder park the server
// once the backlog is gone.
func TestBackgroundHookDrainsBacklog(t *testing.T) {
	var backlog atomic.Int64
	backlog.Store(1000)
	var calls atomic.Int64
	s := NewServer(Config{
		MaxClients:       2,
		BackgroundBudget: 8,
		Background: func(budget int) int {
			calls.Add(1)
			n := backlog.Load()
			if n <= 0 {
				return 0
			}
			units := int64(budget)
			if units > n {
				units = n
			}
			backlog.Add(-units)
			return int(units)
		},
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for backlog.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := backlog.Load(); got != 0 {
		t.Fatalf("backlog not drained: %d remaining after %d calls", got, calls.Load())
	}
	st := s.Stats()
	if st.BackgroundRuns == 0 || st.BackgroundUnits != 1000 {
		t.Fatalf("BackgroundRuns=%d BackgroundUnits=%d, want runs>0 units=1000",
			st.BackgroundRuns, st.BackgroundUnits)
	}
	// With the backlog gone the hook returns 0 and the ladder proceeds:
	// the server must still park (background work must not pin the CPU).
	for time.Now().Before(deadline) {
		if s.Stats().IdleParks > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server never parked after backlog drained (parks=%d)", s.Stats().IdleParks)
}

// Requests must still be served promptly while the hook reports endless
// pending work (the stay-hot path), and a negative budget disables the
// hook entirely.
func TestBackgroundHookStayHotAndDisable(t *testing.T) {
	var calls atomic.Int64
	s := NewServer(Config{
		MaxClients: 2,
		Background: func(budget int) int {
			calls.Add(1)
			return budget // always "more work pending"
		},
	})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] + 1 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := s.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// Every request arrives while the hook is reporting pending work: the
	// idle server runs it on each empty sweep, and it has run before the
	// first request is issued.
	for deadline := time.Now().Add(5 * time.Second); calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("hook never ran on the idle server")
		}
		runtime.Gosched()
	}
	for i := uint64(0); i < 200; i++ {
		if got := c.Delegate1(fid, i); got != i+1 {
			t.Fatalf("Delegate1(%d) = %d", i, got)
		}
	}
	if parks := s.Stats().IdleParks; parks != 0 {
		t.Fatalf("server parked %d times while the hook reported pending work", parks)
	}
	s.Stop()

	var disabled atomic.Int64
	s2 := NewServer(Config{
		MaxClients:       2,
		BackgroundBudget: -1,
		Background: func(budget int) int {
			disabled.Add(1)
			return budget
		},
	})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	s2.Stop()
	if disabled.Load() != 0 {
		t.Fatalf("disabled hook ran %d times", disabled.Load())
	}
}
