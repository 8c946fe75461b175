package spin

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestWaiterMakesProgressAtGOMAXPROCS1(t *testing.T) {
	// The waiter must yield so the setter goroutine can run even on a
	// single P.
	var flag atomic.Uint32
	go flag.Store(1)
	var w Waiter
	for flag.Load() == 0 {
		w.Wait()
	}
}

func TestWaiterReset(t *testing.T) {
	var w Waiter
	for i := 0; i < 200; i++ {
		w.Wait()
	}
	if !w.Yielded() || !w.Sleeping() {
		t.Fatalf("after 200 waits: Yielded=%v Sleeping=%v, want both true", w.Yielded(), w.Sleeping())
	}
	w.Reset()
	if w.spins != 0 || w.yields != 0 || w.sleep != 0 {
		t.Fatalf("Reset did not clear the ladder: %+v", w)
	}
	if w.Yielded() || w.Sleeping() {
		t.Fatal("Reset left the waiter past the spin rung")
	}
}

func TestWaiterLadderOrder(t *testing.T) {
	var w Waiter
	for i := 0; i < defaultSpins; i++ {
		if w.Yielded() {
			t.Fatalf("Yielded true after only %d waits", i)
		}
		w.Wait()
	}
	if !w.Yielded() {
		t.Fatal("spin phase did not end after defaultSpins waits")
	}
	for i := 0; i < defaultYields; i++ {
		if w.Sleeping() {
			t.Fatalf("Sleeping true after only %d yields", i)
		}
		w.Wait()
	}
	if !w.Sleeping() {
		t.Fatal("yield phase did not end after defaultYields waits")
	}
}

func TestWaiterSleepBacksOffAndCaps(t *testing.T) {
	var w Waiter
	// Burn through the spin and yield rungs.
	for i := 0; i < defaultSpins+defaultYields; i++ {
		w.Wait()
	}
	start := time.Now()
	w.Wait() // first sleep: sleepMin
	if elapsed := time.Since(start); elapsed < sleepMin {
		t.Fatalf("first sleep lasted %v, want >= %v", elapsed, sleepMin)
	}
	// The stored back-off must double and then saturate at sleepMax.
	for i := 0; i < 20; i++ {
		if w.sleep > sleepMax {
			t.Fatalf("back-off %v exceeds cap %v", w.sleep, sleepMax)
		}
		prev := w.sleep
		w.Wait()
		if w.sleep < prev {
			t.Fatalf("back-off shrank from %v to %v", prev, w.sleep)
		}
	}
	if w.sleep != sleepMax {
		t.Fatalf("back-off settled at %v, want cap %v", w.sleep, sleepMax)
	}
}

// TestWaitOnWakeEndsSleep: a closed wake channel ends the sleep rung at
// once. Twenty sleeps at the 1 ms cap take 20 ms on their timers; the
// bound is half that.
func TestWaitOnWakeEndsSleep(t *testing.T) {
	var w Waiter
	for !w.Sleeping() {
		w.Wait()
	}
	wake := make(chan struct{})
	close(wake)
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		w.sleep = sleepMax
		if !w.WaitOn(wake, time.Time{}) {
			t.Fatal("unbounded WaitOn reported the wait over")
		}
	}
	if elapsed := time.Since(start); elapsed > n*sleepMax/2 {
		t.Fatalf("%d woken sleeps took %v, want < %v: the wake channel did not end them", n, elapsed, n*sleepMax/2)
	}
}

func TestUntilEqualUint32(t *testing.T) {
	var v atomic.Uint32
	go v.Store(7)
	UntilEqualUint32(v.Load, 7)
}

func TestDelayReturns(t *testing.T) {
	Delay(0)
	Delay(25)
	Delay(1000)
}

func BenchmarkDelay25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Delay(25)
	}
}
