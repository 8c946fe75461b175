package core

import (
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

// TestIdleBusyClientsRarelyPark: a zero-think sync client and a 16-deep
// AsyncGroup stream keep the server spinning; neither a lone request
// nor a gap inside a pipelined window predicts a park.
func TestIdleBusyClientsRarelyPark(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		s, inc := idleServer(t)
		c := s.MustNewClient()
		req := func() { c.Delegate1(inc, 1) }
		idleDelta(s, idleWarm, req)
		if parks, _ := idleDelta(s, idleN, req); parks > busyParkBound(idleN) {
			t.Fatalf("%d parks over %d zero-think requests, want <= %d", parks, idleN, busyParkBound(idleN))
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
// to the zero-think park rate within a bounded number of requests (a
// probe gap every loneProbe requests re-measures the gap).
func TestIdleLoneModeNotSticky(t *testing.T) {
	s, inc := idleServer(t)
	c := s.MustNewClient()
	think := func() {
		c.Delegate1(inc, 1)
		time.Sleep(idleThink)
	}
	busy := func() { c.Delegate1(inc, 1) }
	idleDelta(s, idleWarm, think)
	const n = 100
	parks, yields := idleDelta(s, n, think)
	checkLone(t, n, parks, yields)
	// The switch: at most loneProbe early parks, then the ladder.
	if parks, _ := idleDelta(s, 2*loneProbe, busy); parks > loneProbe+busyParkBound(idleN) {
		t.Fatalf("%d parks over the first %d zero-think requests after lone ones, want <= %d",
			parks, 2*loneProbe, loneProbe+busyParkBound(idleN))
	}
	if parks, _ := idleDelta(s, idleN, busy); parks > busyParkBound(idleN) {
		t.Fatalf("%d parks over %d zero-think requests after the switch, want <= %d", parks, idleN, busyParkBound(idleN))
	}
}
