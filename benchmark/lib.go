package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/obs"
)

// This file runs the in-process workloads: one goroutine against an
// apps.DelegatedKV, synchronously (lib-sync) or through a KVBatchClient
// window (lib-pipelined-churn).

// libSampleEvery is the latency sampling stride of the in-process
// workloads: timing every op would put two clock reads (≈ 50 ns) inside
// a ≈ 700 ns operation.
const libSampleEvery = 64

// tickShift derives the store's clock from the op stream: one tick per
// 1024 ops issued, so expiry is a function of the stream, not of wall
// time.
const tickShift = 10

// libSide is the in-process serving side: the store, its delegation
// server, and the one client handle the workload uses.
type libSide struct {
	d     *apps.DelegatedKV
	kv    *apps.KVClient      // issues the ops when window == 1; reads the store counters
	batch *apps.KVBatchClient // issues the ops when window > 1
	orc   *oracle
	sink  *obs.TraceSink
	tick  atomic.Uint64

	// Pipelined completion state: completions arrive in submit order, so
	// the in-flight records form a FIFO ring.
	ring    []inflight
	head, n int
	win     *window
	spans   *spanLog
	failed  uint64
}

// startLib builds the store, starts its server, and preloads; it is the
// whole of set-up for an in-process workload.
func startLib(w *workload, trace bool) (*libSide, error) {
	s := &libSide{orc: newOracle(w.keys, w.missOK)}
	cfg := core.Config{MaxClients: w.window + 1}
	if trace {
		s.sink = obs.NewTraceSink(obs.SinkConfig{Clients: cfg.MaxClients})
		cfg.Trace = s.sink
	}
	s.d = apps.NewDelegatedKVConfig(w.capacity, cfg)
	s.d.SetTickSource(s.tick.Load)
	if err := s.d.Start(); err != nil {
		return nil, err
	}
	var err error
	if s.kv, err = s.d.NewClient(); err == nil && w.window > 1 {
		if s.batch, err = s.d.NewBatchClient(w.window); err == nil {
			s.ring = make([]inflight, w.window+1)
			s.batch.OnDone(s.onDone)
		}
	}
	if err != nil {
		s.d.Stop()
		return nil, err
	}
	s.run(newPreload(w, 0), nil, 0, nil)
	if s.failed > 0 || s.orc.violations > 0 {
		s.stop()
		return nil, fmt.Errorf("preload: %d writes failed", s.failed)
	}
	return s, nil
}

func (s *libSide) stop() {
	if s.batch != nil {
		s.batch.Flush()
	}
	s.d.Stop()
}

func (s *libSide) cpuMicros() float64 { return selfCPUMicros() }

func (s *libSide) peakRSSMB() float64 {
	v, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return 0
	}
	return v
}

func (s *libSide) ctxSwitches() uint64 {
	v, err := procCtxSwitches(os.Getpid())
	if err != nil {
		return 0
	}
	return v
}

// stats reads the store counters through the delegation server, like
// any other request. Pending pipelined ops are flushed first.
func (s *libSide) stats() storeStats {
	if s.batch != nil {
		s.batch.Flush()
	}
	h, m, e, x := s.kv.Stats()
	return storeStats{h, m, e, x, true}
}

// run issues ops from src until it ends or stopAt passes. rec may be
// nil (preload). Every libSampleEvery-th op is timed; untimed ops are
// counted into the window of the most recent timed one, which misplaces
// at most one stride of ops per window boundary.
func (s *libSide) run(src opSource, rec *recorder, stopAt int64, spans *spanLog) {
	s.spans = spans
	s.win = nil
	var issued uint64
	for {
		o, ok := src.next()
		if !ok {
			break
		}
		var t0 int64
		if issued%libSampleEvery == 0 {
			t0 = nowNS()
			if stopAt > 0 && t0 >= stopAt {
				break
			}
			if rec != nil {
				s.win = rec.at(t0)
			}
		}
		issued++
		if issued&(1<<tickShift-1) == 0 {
			s.tick.Add(1)
		}
		if s.batch != nil {
			s.submit(&o, t0)
			continue
		}
		f := inflight{t0: t0}
		s.orc.issue(&o, &f)
		var r reply
		switch o.kind {
		case opGet:
			if v, hit := s.kv.Get(o.key); hit {
				r = reply{status: stValue, val: v}
			} else {
				r.status = stMiss
			}
		case opSet:
			s.kv.Set(o.key, o.val)
			r.status = stStored
		case opSetTTL:
			s.kv.SetTTLNow(o.key, o.val, o.ttl)
			r.status = stStored
		case opTouch:
			if s.kv.Touch(o.key, o.ttl) {
				r.status = stTouched
			} else {
				r.status = stMiss
			}
		}
		s.finish(&f, r)
	}
	if s.batch != nil {
		s.batch.Flush()
	}
}

// submit pushes o into the pipelined window. The batch client may
// deliver the oldest completion from inside the call.
func (s *libSide) submit(o *op, t0 int64) {
	f := &s.ring[(s.head+s.n)%len(s.ring)]
	*f = inflight{t0: t0}
	s.orc.issue(o, f)
	s.n++
	switch o.kind {
	case opGet:
		s.batch.Get(o.key)
	case opSet:
		s.batch.Set(o.key, o.val)
	case opSetTTL:
		s.batch.SetTTL(o.key, o.val, o.ttl)
	case opTouch:
		s.batch.Touch(o.key, o.ttl)
	}
}

// onDone is the batch client's completion callback: ret is the
// delegated function's raw return word for the oldest in-flight op.
func (s *libSide) onDone(_ int, ret uint64) {
	f := &s.ring[s.head]
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	var r reply
	switch f.kind {
	case opGet:
		if ret == ^uint64(0) {
			r.status = stMiss
		} else {
			r = reply{status: stValue, val: ret}
		}
	case opSet, opSetTTL:
		r.status = stStored
	case opTouch:
		if ret == 1 {
			r.status = stTouched
		} else {
			r.status = stMiss
		}
	}
	s.finish(f, r)
}

func (s *libSide) finish(f *inflight, r reply) {
	ok := s.orc.complete(f, r)
	var t1 int64
	if f.t0 != 0 {
		t1 = nowNS()
		if s.spans != nil {
			s.spans.add("client.op", f.t0, t1, s.spans.leg, 1)
		}
	}
	switch {
	case s.win == nil:
		if !ok {
			s.failed++
		}
	case ok:
		s.win.ops++
		if f.t0 != 0 {
			s.win.addLat(t1 - f.t0)
		}
	default:
		s.win.failed++
	}
}
