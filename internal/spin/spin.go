// Package spin provides polite busy-wait primitives.
//
// The paper's clients spin on a response slot with the x86 PAUSE
// instruction. Go exposes no PAUSE intrinsic and may multiplex many
// goroutines onto few OS threads (in this environment, exactly one), so a
// correct spin loop must eventually yield to the scheduler or the writer it
// is waiting for may never run. Waiter implements a three-rung
// spin → yield → sleep ladder: a short busy spin for responses that are
// already in flight, scheduler yields for responses a sweep or two away,
// and finally exponentially backed-off sleeps so a waiter whose peer is
// genuinely slow (or parked) stops consuming its processor. The ladder is
// live at GOMAXPROCS=1 and burns no core when the awaited event is far off,
// and a peer that knows it is awaited can cut a sleep short (WaitOn).
package spin

import (
	"runtime"
	"time"
)

// defaultSpins is the number of busy iterations before the first yield.
// Chosen small: at GOMAXPROCS=1 every spin iteration beyond the first few
// is wasted work.
const defaultSpins = 32

// defaultYields is the number of scheduler yields before the waiter starts
// sleeping. Yields are cheap but still burn the processor; once the
// awaited event has not arrived after this many yields it is not
// imminent, and sleeping is kinder to the rest of the machine.
const defaultYields = 64

// Sleep back-off bounds: the first sleep is sleepMin, each subsequent wait
// doubles it up to sleepMax. The cap keeps worst-case added latency small
// while still dropping CPU usage to ~0 for long waits.
const (
	sleepMin = 10 * time.Microsecond
	sleepMax = time.Millisecond
)

// Waiter is a bounded spin-then-yield-then-sleep helper. The zero value is
// ready to use. It is not safe for concurrent use; each waiting goroutine
// owns one.
type Waiter struct {
	spins  int
	yields int
	sleep  time.Duration
	t      *time.Timer // the sleep rung's timer, made once and reused
}

// Wait performs one waiting step: a busy spin while under the spin bound,
// a scheduler yield while under the yield bound, and an exponentially
// backed-off sleep afterwards.
func (w *Waiter) Wait() { w.WaitOn(nil, time.Time{}) }

// WaitOn is Wait with a deadline, unless deadline is zero, and a wake
// channel. It performs one waiting step and reports whether the wait may
// continue; it returns false once deadline has passed. The clock is
// consulted only on the yield and sleep rungs — the busy-spin rung stays
// a handful of cycles — so a loop can overshoot its deadline by at most
// the spin phase. Sleeps are truncated to the remaining budget so a
// waiter never oversleeps its deadline by more than a scheduler quantum.
//
// A sleep also ends when wake is closed (a nil wake never is), so a peer
// that knows the waiter sleeps can end it at once: left to its timer, a
// sleep in a process whose threads are all idle lasts until the runtime
// netpoller's next 1 ms tick, however short it was asked to be.
func (w *Waiter) WaitOn(wake <-chan struct{}, deadline time.Time) bool {
	if w.spins < defaultSpins {
		w.spins++
		pause()
		return true
	}
	var now time.Time
	if !deadline.IsZero() {
		if now = time.Now(); !now.Before(deadline) {
			return false
		}
	}
	if w.yields < defaultYields {
		w.yields++
		runtime.Gosched()
		return true
	}
	d := w.sleep
	if d <= 0 {
		d = sleepMin
	}
	if rem := deadline.Sub(now); !deadline.IsZero() && d > rem {
		d = rem
	}
	if w.t == nil {
		w.t = time.NewTimer(d)
	}
	w.t.Reset(d)
	select {
	case <-wake:
		w.t.Stop()
	case <-w.t.C:
	}
	w.sleep = min(2*d, sleepMax)
	return true
}

// Yielded reports whether the waiter has exhausted its busy-spin phase,
// i.e. at least one Wait call reached the yield or sleep rung.
func (w *Waiter) Yielded() bool { return w.spins >= defaultSpins }

// Sleeping reports whether the waiter has reached the sleep rung of the
// ladder.
func (w *Waiter) Sleeping() bool { return w.yields >= defaultYields }

// Reset restarts the ladder from the busy-spin rung, keeping its timer.
// Call after the awaited condition was observed so the next wait starts
// cheap again.
func (w *Waiter) Reset() { *w = Waiter{t: w.t} }

//go:noinline
func pause() {
	// A call that the compiler must not elide; close to a PAUSE in spirit
	// (a handful of cycles, no memory traffic).
}

// Delay busy-loops for approximately n PAUSE-equivalents. It is used to
// reproduce the paper's "25 PAUSE between critical sections" delay loops.
func Delay(n int) {
	for i := 0; i < n; i++ {
		pause()
	}
}

// UntilEqualUint32 spins (politely) until load() == want.
func UntilEqualUint32(load func() uint32, want uint32) {
	var w Waiter
	for load() != want {
		w.Wait()
	}
}
