package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"ffwd/internal/obs"
)

// This file runs one leg of one workload — set-up, warm-up, the
// measured interval in ten windows, teardown — and turns what it
// observed into the end-to-end metrics.

// env is what every run shares.
type env struct {
	root    string // module root
	scratch string // build output and per-run data dirs (inside the checkout)
	bin     string // built ffwdserve, "" until a served workload needs it
	buildS  float64
	log     func(format string, args ...any)
	// commands collects every server command line spawned, for the
	// output header.
	commands []string
}

// cpuMeter is the serving side of a leg as the CPU sampler sees it: the
// spawned processes of a served workload, or this process for lib-*.
type cpuMeter interface {
	cpuMicros() float64 // cumulative user+system CPU, µs
}

// legOpts selects what one leg does beyond measuring.
type legOpts struct {
	seed    uint64
	measure time.Duration
	setups  int  // set-up repetitions; the last one is measured on
	trace   bool // serve with the existing trace hooks on and record client spans
	// crash stops the serving side with SIGKILL instead of SIGTERM, so
	// only what it had made durable survives (and nothing is learned
	// from its shutdown report).
	crash bool
	// restart brings the serving side back from its data dirs after the
	// stop, times spawn → first correct reply, and (durable) reads every
	// key back against the oracle.
	restart bool
	spans   *spanLog
}

// legResult is everything one leg observed.
type legResult struct {
	rec     *recorder
	cpuWin  [nWindows]float64 // serving-side CPU µs per window
	setupS  []float64
	peakRSS float64
	ctxSw   uint64 // serving-side context switches over the measured interval
	store   storeStats

	genCPU    float64 // generator (this process) CPU µs over the measured interval
	stallFrac float64 // share of generator loop time spent blocked waiting for replies

	violations uint64
	stray      uint64 // failures outside the measured windows (warm-up, drain)
	readBack   uint64 // keys read back after the crash
	lost       uint64 // of those, acknowledged writes that did not survive
	restartMS  float64

	// From the serving side's own shutdown report.
	requests, sweeps, flushes uint64
	traceEvents, traceDrops   uint64
	events                    []obs.Event
	eventsOffset              int64
}

func (r *legResult) totals() (ops, failed uint64) {
	for i := range r.rec.wins {
		ops += r.rec.wins[i].ops
		failed += r.rec.wins[i].failed
	}
	return ops, failed
}

// attempted and failed are the contract's counts: every completion in
// the measured interval plus every key read back, against refusals,
// errors, oracle violations (wherever they happened) and lost writes.
func (r *legResult) attemptedFailed() (attempted, failed uint64) {
	ops, bad := r.totals()
	return ops + bad + r.readBack, bad + r.stray + r.lost
}

// takeCommands returns the server command lines spawned since the last
// call, each once.
func (e *env) takeCommands() []string {
	out := uniq(e.commands)
	e.commands = nil
	return out
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func warmupFor(measure time.Duration) time.Duration {
	return min(time.Second, measure/10)
}

// sampleCPU records the serving side's cumulative CPU at every window
// boundary of rec and returns the per-window differences.
func sampleCPU(s cpuMeter, rec *recorder) (win [nWindows]float64) {
	var at [nWindows + 1]float64
	for i := range at {
		if d := rec.start + int64(i)*rec.winDur - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		at[i] = s.cpuMicros()
	}
	for i := range win {
		win[i] = at[i+1] - at[i]
	}
	return win
}

func (e *env) ensureServer() error {
	if e.bin != "" {
		return nil
	}
	t0 := time.Now()
	bin, err := buildServer(e.root, e.scratch)
	if err != nil {
		return err
	}
	e.bin, e.buildS = bin, time.Since(t0).Seconds()
	e.log("build_s %.3f s  (go build ./cmd/ffwdserve; excluded from setup_s)", e.buildS)
	return nil
}

// runLeg runs one leg of w.
func (e *env) runLeg(w *workload, o legOpts) (*legResult, error) {
	if w.tgt == targetLib {
		return e.runLibLeg(w, o)
	}
	return e.runServedLeg(w, o)
}

func (e *env) runLibLeg(w *workload, o legOpts) (*legResult, error) {
	res := &legResult{}
	var s *libSide
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = startLib(w, o.trace); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer s.stop()

	start := time.Now().Add(warmupFor(o.measure))
	rec := newRecorder(start, o.measure, int(o.measure.Seconds()*4e4)/nWindows+1024)
	res.rec = rec
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.cpuWin = sampleCPU(s, rec)
	}()
	// The generator shares this process with the store, so its CPU and
	// context switches cannot be split from the serving side's; both are
	// reported as the process total.
	s.run(newStream(w, o.seed^0x5bd1e995, 0), nil, rec.start, nil)
	st0, ctx0, cpu0 := s.stats(), s.ctxSwitches(), selfCPUMicros()
	srv0 := s.d.Server().Stats()
	s.run(newStream(w, o.seed, 0), rec, rec.end(), o.spans)
	res.genCPU = selfCPUMicros() - cpu0
	res.ctxSw = s.ctxSwitches() - ctx0
	res.store = s.stats().sub(st0)
	srv := s.d.Server().Stats()
	res.requests, res.sweeps, res.flushes = srv.Requests-srv0.Requests, srv.Sweeps-srv0.Sweeps, srv.Batches-srv0.Batches
	wg.Wait()
	res.peakRSS = s.peakRSSMB()
	res.violations = s.orc.violations
	res.stray = s.failed
	if s.sink != nil {
		res.events = s.sink.Snapshot()
		res.traceEvents = uint64(len(res.events))
		res.traceDrops = s.sink.Drops()
		res.eventsOffset = int64(s.sink.WallStart().Sub(procStart))
	}
	if o.restart {
		// The in-process analogue of a restart: a fresh store and server
		// up to the first acknowledged write.
		first := *w
		first.preload = 1
		t0 := time.Now()
		s2, err := startLib(&first, false)
		if err != nil {
			return nil, err
		}
		res.restartMS = float64(time.Since(t0)) / 1e6
		s2.stop()
	}
	return res, nil
}

func (e *env) runServedLeg(w *workload, o legOpts) (*legResult, error) {
	if err := e.ensureServer(); err != nil {
		return nil, err
	}
	res := &legResult{}
	var (
		cl  *cluster
		sc  *servedConns
		dir string
	)
	teardown := func() {
		if sc != nil {
			sc.close()
		}
		if cl != nil {
			cl.term()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	for i := 0; i < o.setups; i++ {
		teardown()
		cl, sc = nil, nil
		t0 := time.Now()
		var err error
		if dir, err = workDir(e.scratch, w.name); err != nil {
			return nil, err
		}
		if cl, err = startCluster(w, e.bin, dir, o.trace); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if sc, err = connect(w, cl.addr); err != nil {
			teardown()
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer func() { teardown() }()
	e.commands = append(e.commands, cl.commandLines()...)
	sc.drivers[0].spans = o.spans // one goroutine owns the span log

	start := time.Now().Add(warmupFor(o.measure))
	// Sized from the sizing-host rates so the latency slices do not grow
	// (and get copied) mid-run.
	latCap := int(o.measure.Seconds()*4.5e5)/nWindows + 1024
	for _, d := range sc.drivers {
		d.rec = newRecorder(start, o.measure, latCap)
	}
	rec0 := sc.drivers[0].rec
	var (
		wg  sync.WaitGroup
		st0 storeStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The boundary samples of the other counters ride the CPU
		// sampler's first and last wake-ups.
		if d := rec0.start - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		st0 = cl.stats()
		ctx0, cpu0 := cl.ctxSwitches(), selfCPUMicros()
		res.cpuWin = sampleCPU(cl, rec0)
		res.genCPU = selfCPUMicros() - cpu0
		res.ctxSw = cl.ctxSwitches() - ctx0
	}()
	err := sc.each(func(i int, d *connDriver) error {
		return d.run(newStream(w, o.seed, i), d.rec.end())
	})
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\nserver log:\n%s", w.name, err, cl.leader().logText())
	}
	res.store = cl.stats().sub(st0)
	res.rec = rec0
	var stall, loop int64
	for i, d := range sc.drivers {
		if i > 0 {
			rec0.merge(d.rec)
		}
		stall += d.stallNS
		loop += d.loopNS
	}
	if loop > 0 {
		res.stallFrac = float64(stall) / float64(loop)
	}
	res.peakRSS = cl.peakRSSMB()
	res.stray = sc.unwindowedFailures()

	sc.close()
	if o.crash {
		cl.kill()
	} else {
		cl.term()
		e.parseShutdown(cl, res)
	}
	if o.restart {
		// The first correct reply: the durable pair must answer a read
		// from its recovered state; the others start empty, so it is
		// their first acknowledged write.
		probe := func(addr string) error {
			if w.tgt == targetDurable {
				_, err := textCommand(addr, "get 0")
				return err
			}
			first := *w
			first.conns, first.preload = 1, 1
			c, err := connect(&first, addr)
			if err == nil {
				c.close()
			}
			return err
		}
		dt, err := cl.restart(probe)
		if err != nil {
			return nil, fmt.Errorf("%s: restart: %w", w.name, err)
		}
		res.restartMS = float64(dt) / 1e6
		e.commands = append(e.commands, cl.commandLines()...)
		if w.tgt == targetDurable {
			if res.readBack, res.lost, err = sc.readBack(cl.addr); err != nil {
				return nil, fmt.Errorf("%s: read-back: %w", w.name, err)
			}
		}
	}
	res.violations = sc.violations()
	return res, nil
}

// atou parses a run of digits a regexp already matched.
func atou(digits string) uint64 {
	v, _ := strconv.ParseUint(digits, 10, 64) // cannot fail on [0-9]+ short of overflow
	return v
}

// parseShutdown reads what the leader logged on SIGTERM: the delegation
// server's final counters and, on a traced leg, the trace summary.
func (e *env) parseShutdown(cl *cluster, res *legResult) {
	log := cl.leader().logText()
	if m := reFinalStats.FindStringSubmatch(log); m != nil {
		res.requests, res.sweeps, res.flushes = atou(m[1]), atou(m[2]), atou(m[3])
	}
	if !cl.trace {
		return
	}
	if m := reTraceWrote.FindStringSubmatch(log); m != nil {
		res.traceEvents, res.traceDrops = atou(m[1]), atou(m[2])
	}
	if evs, err := readServerTrace(cl.tracePath()); err == nil {
		res.events = evs
	}
}
