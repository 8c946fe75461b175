package core

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// The idle ladder's lone-client prediction, pinned by the server's own
// counts (parks and idle yields), never by timings: each bound holds
// with a wide margin whatever the machine's speed or load. Run under
// `make test-cpus`, so every test also checks GOMAXPROCS=1, where the
// prediction is off and the plain ladder must hold.

const (
	// A lone client's think time: well past loneGap sweeps even where a
	// sweep and its yield take several µs (the race detector, a loaded
	// runner), so the counts below never depend on the machine's speed.
	idleThink = time.Millisecond
	idleWarm  = 2 * loneProbe // requests before the counts start
	idleN     = 4000          // requests of a busy client
)

// idleDelta runs n requests through req and returns the parks and idle
// yields the server counted over them.
func idleDelta(s *Server, n int, req func()) (parks, yields uint64) {
	before := s.Stats()
	for i := 0; i < n; i++ {
		req()
	}
	after := s.Stats()
	return after.IdleParks - before.IdleParks, after.IdleYields - before.IdleYields
}

// busyParkBound is "at most a handful of parks" for n requests of a
// client that never thinks: a park then needs the client descheduled
// for the whole ladder, which a loaded machine allows now and then.
func busyParkBound(n int) uint64 { return uint64(n / 25) }

func idleServer(t *testing.T) (*Server, FuncID) {
	s := startServer(t, Config{MaxClients: 16})
	return s, s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] + 1 })
}

// checkLone asserts what n think-time requests cost the server: a park
// on at least half of them, and — the prediction — next to no yields,
// where the plain ladder spins defaultIdleParkAfter-1 sweeps per gap.
// At GOMAXPROCS=1 the plain ladder is asserted instead.
func checkLone(t *testing.T, n int, parks, yields uint64) {
	t.Helper()
	if parks < uint64(n/2) {
		t.Fatalf("%d parks over %d think-time requests, want >= %d", parks, n, n/2)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		if min := (defaultIdleParkAfter - 1) * parks; yields < min {
			t.Fatalf("GOMAXPROCS=1: %d idle yields for %d parks, want the full ladder (>= %d)", yields, parks, min)
		}
		return
	}
	if yields > uint64(4*n) {
		t.Fatalf("%d idle yields over %d lone requests (%d parks): the server spun through gaps it should park at once",
			yields, n, parks)
	}
}

// TestIdleLoneClientParksAtOnce: a sync client with think time gets a
// park per request, taken at the first empty sweep of each gap.
func TestIdleLoneClientParksAtOnce(t *testing.T) {
	s, inc := idleServer(t)
	c := s.MustNewClient()
	req := func() {
		c.Delegate1(inc, 1)
		time.Sleep(idleThink)
	}
	idleDelta(s, idleWarm, req)
	const n = 200
	parks, yields := idleDelta(s, n, req)
	checkLone(t, n, parks, yields)
}

// ladderGap drives l through one gap as the server loop sees it: serve
// one request, then run empty sweeps until the next request arrives
// after sweeps of them, or the ladder parks and that request wakes the
// server. It reports whether the server parked.
func ladderGap(l *idleLadder, sweeps int) bool {
	l.served(1)
	for i := 0; i < sweeps; i++ {
		if l.empty() {
			l.blocked()
			return true
		}
	}
	return false
}

// TestIdleBusyClientsRarelyPark: a zero-think sync client and a 16-deep
// AsyncGroup stream keep the server spinning; neither a lone request
// nor a gap inside a pipelined window predicts a park.
//
// The sync case drives the ladder itself through a fixed gap sequence:
// a zero-think client's gaps of 1 … loneGap sweeps, and every so often
// a run of up to loneRun-1 gaps that outlast the whole ladder (the
// client descheduled). Each of those parks once, as it must; no other
// gap parks, and the short gaps in between keep the lone prediction
// off. Against a live server the count of long gaps is the host's
// schedule, so a bound on parks there fails whenever something else
// wants the CPU.
func TestIdleBusyClientsRarelyPark(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		l := idleLadder{parkAfter: defaultIdleParkAfter, predict: true}
		parks, long := 0, 0
		for i := 0; i < idleN; i++ {
			sweeps := 1 + i%loneGap
			if i%100 == 99 {
				// A descheduled stretch: 1 … loneRun-1 full ladders.
				for j := 0; j < 1+(i/100)%(loneRun-1); j++ {
					long++
					if !ladderGap(&l, math.MaxInt) {
						t.Fatalf("gap %d outlasted the ladder without a park", i)
					}
					parks++
				}
			}
			if ladderGap(&l, sweeps) {
				parks++
			}
		}
		if parks != long {
			t.Fatalf("%d parks over %d zero-think requests with %d descheduled gaps, want one park per descheduled gap",
				parks, idleN, long)
		}
	})
	t.Run("async16", func(t *testing.T) {
		s, inc := idleServer(t)
		g, err := NewAsyncGroup(s, 16)
		if err != nil {
			t.Fatal(err)
		}
		req := func() { g.Submit1(inc, 1) }
		idleDelta(s, idleWarm, req)
		parks, _ := idleDelta(s, idleN, req)
		g.Flush(nil)
		if parks > busyParkBound(idleN) {
			t.Fatalf("%d parks over a %d-request window-16 stream, want <= %d", parks, idleN, busyParkBound(idleN))
		}
	})
}

// TestIdleLoneModeNotSticky: a lone client that stops thinking is back
// on the ladder within loneProbe requests, because a probe gap every
// loneProbe requests re-measures the gap. The test drives the ladder
// itself through the gaps a server sees, so the counts do not depend on
// how fast the client runs: think-time gaps that each end in a park,
// then zero-think gaps shorter than loneGap sweeps. (Against a live
// server, a zero-think client that the race detector or a loaded host
// deschedules for four full ladders in a row re-enters the lone mode
// legitimately: its gaps really were long.)
func TestIdleLoneModeNotSticky(t *testing.T) {
	l := idleLadder{parkAfter: defaultIdleParkAfter, predict: true}
	gap := func(sweeps int) bool { return ladderGap(&l, sweeps) }
	for i := 0; i < idleWarm; i++ {
		if !gap(math.MaxInt) {
			t.Fatalf("think gap %d ended without a park", i)
		}
	}
	if l.lone < loneRun {
		t.Fatalf("after %d think gaps lone = %d, want the prediction on (>= %d)", idleWarm, l.lone, loneRun)
	}
	// busy counts the parks over n zero-think gaps of 1 … loneGap sweeps.
	busy := func(n int) (parks int) {
		for i := 0; i < n; i++ {
			if gap(1 + i%loneGap) {
				parks++
			}
		}
		return parks
	}
	// The switch: at most loneProbe early parks, then the ladder.
	if parks := busy(2 * loneProbe); parks > loneProbe {
		t.Fatalf("%d parks over the first %d zero-think requests after lone ones, want <= %d",
			parks, 2*loneProbe, loneProbe)
	}
	if parks := busy(idleN); parks != 0 {
		t.Fatalf("%d parks over %d zero-think requests after the switch, want 0", parks, idleN)
	}
}
