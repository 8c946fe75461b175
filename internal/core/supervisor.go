package core

import (
	"sync"
	"time"
)

// SupervisorConfig parameterizes a Supervisor. The zero value selects the
// defaults.
type SupervisorConfig struct {
	// Interval between health checks. Default 1ms — fast enough that a
	// crash is repaired within a few client spin ladders, slow enough
	// that supervision is invisible in profiles.
	Interval time.Duration
	// KickAfter is the number of consecutive suspect checks (heartbeat
	// stalled while unparked, or parked without progress) before the
	// supervisor sends a rescue kick. Default 4. A kick costs the
	// server one empty sweep, so a genuinely idle parked server pays
	// one wake per KickAfter×Interval — the price of surviving lost
	// wake notifications.
	KickAfter int
	// OnCrash, if non-nil, is consulted when a health check finds the
	// server goroutine dead of an escaped panic, before any restart.
	// Returning true hands the failure off — the caller has replaced
	// the server some other way (e.g. a replica group promoting a
	// follower in its place) — and the supervisor's loop exits: its
	// server is gone for good, so there is nothing left to watch.
	// Returning false falls back to the normal RestartIfCrashed repair.
	OnCrash func() bool
}

// Supervisor monitors one Server's health and repairs what it can:
//
//   - A crashed server goroutine (a panic that escaped the delegated-call
//     recovery) is restarted via RestartIfCrashed, preserving slot,
//     toggle, and occupancy state; Stats.Restarts counts repairs and
//     Stats.LastPanic holds the crash record.
//   - A wedged server — heartbeat (sweep counter) stalled while unparked
//     — is counted in Stats.HeartbeatMisses and kicked; a live goroutine
//     cannot be forcibly restarted in Go, so the kick targets the one
//     wedge that is repairable: blocked on a lost wake token.
//   - A server parked across several consecutive checks is kicked too,
//     bounding the damage of a dropped park/wake handoff (a client whose
//     wake was lost otherwise waits forever); Stats.Kicks counts these.
//
// A deliberately stopped server is left alone. Use one Supervisor per
// Server; Start/Stop are idempotent.
type Supervisor struct {
	s    *Server
	cfg  SupervisorConfig
	stop chan struct{}
	done chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
}

// NewSupervisor returns an unstarted supervisor for s.
func NewSupervisor(s *Server, cfg SupervisorConfig) *Supervisor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Millisecond
	}
	if cfg.KickAfter <= 0 {
		cfg.KickAfter = 4
	}
	return &Supervisor{
		s:    s,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the supervision loop.
func (sv *Supervisor) Start() {
	sv.startOnce.Do(func() { go sv.loop() })
}

// Stop halts the supervision loop and waits for it to exit. The server
// itself is not touched.
func (sv *Supervisor) Stop() {
	sv.stopOnce.Do(func() { close(sv.stop) })
	<-sv.done
}

func (sv *Supervisor) loop() {
	defer close(sv.done)
	t := time.NewTicker(sv.cfg.Interval)
	defer t.Stop()
	s := sv.s
	var lastSweeps uint64
	stalled, parkedChecks := 0, 0
	for {
		select {
		case <-sv.stop:
			return
		case <-t.C:
		}
		// One reading of the crash state decides this tick: a crash found
		// still unwinding is neither handed off nor restarted until the
		// next check sees it whole, so OnCrash is always asked first.
		crashed := s.Crashed()
		if crashed && sv.cfg.OnCrash != nil && sv.cfg.OnCrash() {
			return
		}
		if crashed && s.RestartIfCrashed() {
			stalled, parkedChecks = 0, 0
			continue
		}
		if !s.running.Load() || s.stopping.Load() {
			// Deliberately stopped (or stopping): nothing to repair.
			stalled, parkedChecks = 0, 0
			continue
		}
		sweeps := s.nSweeps.Load()
		switch {
		case s.parked.Load():
			// Parked is the healthy idle state, but also where a
			// lost wake strands clients; a periodic rescue kick
			// bounds that fault at one empty sweep per
			// KickAfter×Interval of idle time.
			parkedChecks++
			stalled = 0
			if parkedChecks >= sv.cfg.KickAfter {
				s.kick()
				parkedChecks = 0
			}
		case sweeps == lastSweeps && s.alive.Load():
			// Unparked and not sweeping: wedged (e.g. stuck inside
			// a delegated function, or blocked on a wake whose
			// flag was already lowered). Count the miss; kick in
			// case it is the latter.
			stalled++
			parkedChecks = 0
			s.nHeartbeatMiss.Add(1)
			if stalled >= sv.cfg.KickAfter {
				s.kick()
				stalled = 0
			}
		default:
			stalled, parkedChecks = 0, 0
		}
		lastSweeps = sweeps
	}
}
