package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/expiry"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/padded"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
	"ffwd/internal/reptrans"
	"ffwd/internal/wireproto"
)

// This file is the layer replay: each module's public functions called
// from outside, on the workload's own op stream, with a span around
// every call batch. It first measures the machine (line transfer, fsync,
// loopback), so every layer figure can be read as a multiple of the
// relevant one and host drift separates from code change.

// layerDef names one per-layer metric. machine is the calibration metric
// its value is printed as a multiple of ("" = none).
type layerDef struct {
	name, unit, better, machine string
}

const (
	mLine     = "machine.line_rtt_ns"
	mFsync    = "machine.fsync_us"
	mLoopback = "machine.loopback_rtt_us"
)

// layerDefs is the per-layer metric list, in print order. BENCHMARK.json
// carries the same names; a self-test keeps the two in step.
var layerDefs = []layerDef{
	{mLine, "ns", "lower", ""},
	{mFsync, "us", "lower", ""},
	{mLoopback, "us", "lower", ""},

	{"core.delegate_ns", "ns", "lower", mLine},
	{"core.pipelined_ns", "ns", "lower", mLine},
	{"core.wake_ns", "ns", "lower", mLine},
	{"core.requests_per_sweep", "count", "higher", ""},
	{"core.requests_per_flush", "count", "higher", ""},
	{"core.parks_per_kop", "count", "lower", ""},
	{"core.background_units_per_kop", "count", "lower", ""},
	{"core.allocs_per_op", "count", "lower", ""},
	{"core.traced_ratio", "ratio", "lower", ""},

	{"apps.kv_get_ns", "ns", "lower", mLine},
	{"apps.kv_set_ns", "ns", "lower", mLine},
	{"apps.kv_setttl_ns", "ns", "lower", mLine},
	{"apps.kv_stream_ns", "ns", "lower", mLine},
	{"apps.kv_hit_ratio", "ratio", "higher", ""},
	{"apps.kv_evictions_per_kop", "count", "lower", ""},
	{"apps.kv_expired_per_kop", "count", "lower", ""},

	{"expiry.wheel_schedule_cancel_ns", "ns", "lower", mLine},
	{"expiry.wheel_advance_ns_per_fire", "ns", "lower", mLine},
	{"expiry.seglru_touch_ns", "ns", "lower", mLine},

	{"wireproto.encode_req_ns", "ns", "lower", mLine},
	{"wireproto.decode_req_ns", "ns", "lower", mLine},
	{"wireproto.encode_resp_ns", "ns", "lower", mLine},
	{"wireproto.decode_resp_ns", "ns", "lower", mLine},
	{"wireproto.allocs_per_op", "count", "lower", ""},

	{"frontend.null_sat_ops_per_s", "1/s", "higher", ""},
	{"frontend.null_rtt_us", "us", "lower", mLoopback},
	{"frontend.ops_per_batch", "count", "higher", ""},
	{"frontend.ops_per_flush", "count", "higher", ""},
	{"frontend.bytes_per_op", "B", "lower", ""},
	{"frontend.queue_sheds", "count", "lower", ""},

	{"replog.append_nosync_ns", "ns", "lower", mLine},
	{"replog.append_sync_us", "us", "lower", mFsync},
	{"replog.bytes_per_entry", "B", "lower", ""},
	{"replog.syncs_per_entry", "count", "lower", ""},
	{"replog.recover_ms", "ms", "lower", ""},

	{"reptrans.replicate_rtt_us", "us", "lower", mLoopback},

	{"replica.propose_mem_us", "us", "lower", ""},
	{"replica.propose_nosync_us", "us", "lower", mLoopback},
	{"replica.propose_durable_us", "us", "lower", mFsync},
	{"replica.appends_per_commit", "count", "lower", ""},
	{"replica.fsyncs_per_commit", "count", "lower", ""},

	{"ffwdserve.lat_p99_us", "us", "lower", ""},
	{"ffwdserve.requests_per_sweep", "count", "higher", ""},
	{"ffwdserve.requests_per_flush", "count", "higher", ""},
	{"ffwdserve.ctx_switches_per_op", "count", "lower", ""},
	{"ffwdserve.store_hit_ratio", "ratio", "higher", ""},
	{"ffwdserve.evictions_per_kop", "count", "lower", ""},
	{"ffwdserve.restart_ms", "ms", "lower", ""},
	{"ffwdserve.residual_us", "us", "lower", ""},

	{"obs.traced_ops_ratio", "ratio", "higher", ""},
	{"obs.trace_events_per_op", "count", "lower", ""},
	{"obs.trace_drops", "count", "lower", ""},

	{"loadgen.cpu_us_per_op", "us", "lower", ""},
	{"loadgen.send_stall_ratio", "ratio", "higher", ""},
}

// replayOps is how much of the workload's stream the replay uses.
const replayOps = 200_000

// recoverEntries is the WAL length replog.recover_ms reopens.
const recoverEntries = 4096

// layerBench carries one replay's state.
type layerBench struct {
	w      *workload
	ops    []op // the stream prefix, values stamped
	budget time.Duration
	dir    string
	spans  *spanLog
	root   uint32
	out    map[string]float64
	cursor int
}

// runLayers replays w's stream against every layer and returns the
// layer metrics it measured (everything but ffwdserve.*, obs.traced_ops_*
// and loadgen.*, which come from the traced leg itself).
func runLayers(w *workload, seed uint64, budget time.Duration, dir string, spans *spanLog) (map[string]float64, error) {
	lb := &layerBench{w: w, budget: budget, dir: dir, spans: spans, out: make(map[string]float64)}
	src := newStream(w, seed, 0)
	orc := newOracle(w.keys, true)
	lb.ops = make([]op, replayOps)
	for i := range lb.ops {
		o, _ := src.next()
		var f inflight
		orc.issue(&o, &f)
		lb.ops[i] = o
	}
	lb.root = spans.open("replay", 0)
	defer spans.end(lb.root)
	for _, step := range []func() error{
		lb.machine, lb.core, lb.coreReplay, lb.apps, lb.expiry, lb.wireproto, lb.frontend, lb.replog, lb.replication,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return lb.out, nil
}

// next returns the following op of the stream prefix, wrapping.
func (lb *layerBench) next() *op {
	o := &lb.ops[lb.cursor]
	if lb.cursor++; lb.cursor == len(lb.ops) {
		lb.cursor = 0
	}
	return o
}

// timed measures fn, which performs n operations per call: one warm-up
// call sizes n so a call lasts about a fifth of the budget, then calls
// repeat until the budget is spent (at least three). Each call is one
// span; the result is the median ns per operation across calls.
func (lb *layerBench) timed(name string, n int, fn func(n int)) float64 {
	t0 := nowNS()
	fn(n)
	if per := float64(nowNS()-t0) / float64(n); per > 0 {
		n = min(max(int(float64(lb.budget)/5/per), 1), 1<<22)
	}
	var perOp []float64
	deadline := nowNS() + int64(lb.budget)
	for i := 0; lb.more(i, deadline); i++ {
		t0 := nowNS()
		fn(n)
		t1 := nowNS()
		lb.spans.add(name, t0, t1, lb.root, n)
		perOp = append(perOp, float64(t1-t0)/float64(n))
	}
	return median(perOp)
}

// more reports whether a measurement that has made i timed calls should
// make another: at least three, then until the deadline, at most 64.
func (lb *layerBench) more(i int, deadline int64) bool {
	return i < 3 || (i < 64 && nowNS() < deadline)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// spinUntil waits for p to reach want, yielding now and then so a
// one-P run still makes progress.
func spinUntil(p *padded.Uint64, want uint64) {
	for i := 1; p.Load() != want; i++ {
		if i&1023 == 0 {
			runtime.Gosched()
		}
	}
}

func (lb *layerBench) machine() error {
	// Cross-goroutine line round trip: the floor under any delegation.
	lb.out[mLine] = lb.timed(mLine, 20000, func(n int) {
		var ping, pong padded.Uint64 // each alone on its line pair
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := uint64(1); i <= uint64(n); i++ {
				spinUntil(&ping, i)
				pong.Store(i)
			}
		}()
		for i := uint64(1); i <= uint64(n); i++ {
			ping.Store(i)
			spinUntil(&pong, i)
		}
		<-done
	})

	f, err := os.Create(filepath.Join(lb.dir, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	var block [64]byte
	var ferr error
	lb.out[mFsync] = lb.timed(mFsync, 8, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := f.Write(block[:]); err != nil {
				ferr = err
			}
			if err := f.Sync(); err != nil {
				ferr = err
			}
		}
	}) / 1e3
	if ferr != nil {
		return fmt.Errorf("fsync probe: %w", ferr)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the client closes
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var msg [30]byte // one GET request frame's worth
	var nerr error
	lb.out[mLoopback] = lb.timed(mLoopback, 64, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := nc.Write(msg[:]); err != nil {
				nerr = err
				return
			}
			if _, err := io.ReadFull(nc, msg[:]); err != nil {
				nerr = err
				return
			}
		}
	}) / 1e3
	nc.Close()
	<-echoDone
	if nerr != nil {
		return fmt.Errorf("loopback probe: %w", nerr)
	}
	return nil
}

func noop(a *[core.MaxArgs]uint64) uint64 { return a[0] }

// delegator is a bare delegation server with one client and a no-op
// function: the round trip and nothing else.
type delegator struct {
	srv *core.Server
	c   *core.Client
	fid core.FuncID
}

func newDelegator(cfg core.Config) (*delegator, error) {
	d := &delegator{srv: core.NewServer(cfg)}
	d.fid = d.srv.Register(noop)
	if err := d.srv.Start(); err != nil {
		return nil, err
	}
	var err error
	if d.c, err = d.srv.NewClient(); err != nil {
		d.srv.Stop()
		return nil, err
	}
	return d, nil
}

func (d *delegator) loop(n int) {
	for i := 0; i < n; i++ {
		d.c.Delegate1(d.fid, uint64(i))
	}
}

func (lb *layerBench) core() error {
	plain, err := newDelegator(core.Config{})
	if err != nil {
		return err
	}
	defer plain.srv.Stop()
	// The cost of looking: the same loop with the lifecycle trace on. The
	// rings are sized so nothing drops while it is timed, and the two
	// loops alternate call by call so host drift hits both alike (an idle
	// delegation server parks, so the one not being timed costs nothing).
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 1, ServerCap: 1 << 20, ClientCap: 1 << 20})
	traced, err := newDelegator(core.Config{Trace: sink})
	if err != nil {
		return err
	}
	defer traced.srv.Stop()
	t0 := nowNS()
	plain.loop(20000)
	n := max(int(float64(lb.budget)/5/(float64(nowNS()-t0)/20000)), 1)
	var plainNS, tracedNS []float64
	timeLoop := func(name string, d *delegator) float64 {
		t0 := nowNS()
		d.loop(n)
		t1 := nowNS()
		lb.spans.add(name, t0, t1, lb.root, n)
		return float64(t1-t0) / float64(n)
	}
	deadline := nowNS() + 2*int64(lb.budget)
	for i := 0; lb.more(i, deadline); i++ {
		plainNS = append(plainNS, timeLoop("core.delegate", plain))
		tracedNS = append(tracedNS, timeLoop("core.delegate_traced", traced))
	}
	lb.out["core.delegate_ns"] = median(plainNS)
	lb.out["core.traced_ratio"] = median(tracedNS) / median(plainNS)
	if sink.Drops() > 0 {
		return fmt.Errorf("core: the traced loop overflowed its trace rings (%d events dropped)", sink.Drops())
	}
	const allocOps = 20000
	m0 := mallocs()
	plain.loop(allocOps)
	lb.out["core.allocs_per_op"] = float64(mallocs()-m0) / allocOps

	srv := core.NewServer(core.Config{MaxClients: 17})
	fid := srv.Register(noop)
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Stop()
	g, err := core.NewAsyncGroup(srv, 16)
	if err != nil {
		return err
	}
	lb.out["core.pipelined_ns"] = lb.timed("core.pipelined", 20000, func(n int) {
		for i := 0; i < n; i++ {
			g.Submit1(fid, uint64(i))
		}
		g.Flush(nil)
	})

	// Delegate after an idle gap long enough for the server to park: the
	// wake path a lone request pays.
	c, err := srv.NewClient()
	if err != nil {
		return err
	}
	var wakes []float64
	deadline = nowNS() + int64(lb.budget)
	for i := 0; i < 5 || (i < 200 && nowNS() < deadline); i++ {
		time.Sleep(time.Millisecond)
		t0 := nowNS()
		c.Delegate1(fid, 1)
		t1 := nowNS()
		lb.spans.add("core.wake", t0, t1, lb.root, 1)
		wakes = append(wakes, float64(t1-t0))
	}
	lb.out["core.wake_ns"] = median(wakes)
	return nil
}

// coreReplay pushes the stream through an in-process DelegatedKV in the
// client shape the workload's serving path uses — one synchronous
// handle where ops are served one at a time (depth-1 and text paths),
// a 16-deep batch window where the binary executor or the workload
// itself pipelines — and reads the server's own counters.
func (lb *layerBench) coreReplay() error {
	shape := *lb.w
	shape.tgt, shape.conns = targetLib, 1
	shape.window = 16
	if lb.w.window == 1 || lb.w.tgt == targetText || lb.w.tgt == targetDurable {
		shape.window = 1
	}
	s, err := startLib(&shape, false)
	if err != nil {
		return err
	}
	defer s.stop()
	st0 := s.d.Server().Stats()
	n := 0
	deadline := nowNS() + int64(lb.budget)
	t0 := nowNS()
	for n < len(lb.ops) && nowNS() < deadline {
		s.run(&sliceSource{ops: lb.ops[n:min(n+8192, len(lb.ops))]}, nil, 0, nil)
		n = min(n+8192, len(lb.ops))
	}
	lb.spans.add("core.replay", t0, nowNS(), lb.root, n)
	st := s.d.Server().Stats()
	req := float64(st.Requests - st0.Requests)
	lb.out["core.requests_per_sweep"] = req / float64(max(st.Sweeps-st0.Sweeps, 1))
	lb.out["core.requests_per_flush"] = req / float64(max(st.Batches-st0.Batches, 1))
	lb.out["core.parks_per_kop"] = float64(st.IdleParks-st0.IdleParks) / req * 1e3
	lb.out["core.background_units_per_kop"] = float64(st.BackgroundUnits-st0.BackgroundUnits) / req * 1e3
	if s.orc.violations > 0 {
		return fmt.Errorf("core replay: %d oracle violations", s.orc.violations)
	}
	return nil
}

// sliceSource replays a fixed op slice.
type sliceSource struct {
	ops []op
	i   int
}

func (s *sliceSource) next() (op, bool) {
	if s.i >= len(s.ops) {
		return op{}, false
	}
	s.i++
	return s.ops[s.i-1], true
}

// newStore returns a bare store preloaded the way set-up preloads the
// served one.
func (lb *layerBench) newStore() *apps.KVStore {
	s := apps.NewKVStore(lb.w.capacity)
	for k := 0; k < lb.w.preload; k++ {
		s.Set(uint64(k), uint64(k)<<versionBits)
	}
	return s
}

func (lb *layerBench) ttl() uint64 {
	if lb.w.ttl > 0 {
		return lb.w.ttl
	}
	return 50
}

// kvApply runs one stream op on a bare store with the store clock
// derived from the op count, as the in-process workloads derive it.
func kvApply(s *apps.KVStore, o *op, issued *uint64) {
	if *issued++; *issued&(1<<tickShift-1) == 0 {
		s.AdvanceClock(*issued >> tickShift)
		s.Maintain(0)
	}
	switch o.kind {
	case opGet:
		s.Get(o.key)
	case opSet:
		s.Set(o.key, o.val)
	case opSetTTL:
		s.SetTTL(o.key, o.val, s.Clock(), o.ttl)
	case opTouch:
		s.Touch(o.key, s.Clock(), o.ttl)
	}
}

func (lb *layerBench) apps() error {
	ttl := lb.ttl()
	s := lb.newStore()
	lb.out["apps.kv_get_ns"] = lb.timed("apps.kv_get", 20000, func(n int) {
		for i := 0; i < n; i++ {
			s.Get(lb.next().key)
		}
	})
	s = lb.newStore()
	lb.out["apps.kv_set_ns"] = lb.timed("apps.kv_set", 20000, func(n int) {
		for i := 0; i < n; i++ {
			o := lb.next()
			s.Set(o.key, o.key<<versionBits)
		}
	})
	s = lb.newStore()
	var issued uint64
	lb.out["apps.kv_setttl_ns"] = lb.timed("apps.kv_setttl", 20000, func(n int) {
		for i := 0; i < n; i++ {
			o := lb.next()
			kvApply(s, &op{kind: opSetTTL, key: o.key, val: o.key << versionBits, ttl: ttl}, &issued)
		}
	})
	s = lb.newStore()
	issued = 0
	lb.out["apps.kv_stream_ns"] = lb.timed("apps.kv_stream", 20000, func(n int) {
		for i := 0; i < n; i++ {
			kvApply(s, lb.next(), &issued)
		}
	})
	// The counters come from one pass over the whole prefix on a fresh
	// store, so they are a function of the seed alone.
	s = lb.newStore()
	issued = 0
	for i := range lb.ops {
		kvApply(s, &lb.ops[i], &issued)
	}
	hits, misses, evictions := s.Stats()
	if hits+misses > 0 {
		lb.out["apps.kv_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	lb.out["apps.kv_evictions_per_kop"] = float64(evictions) / float64(len(lb.ops)) * 1e3
	lb.out["apps.kv_expired_per_kop"] = float64(s.Expired()) / float64(len(lb.ops)) * 1e3
	return nil
}

func (lb *layerBench) expiry() error {
	ttl := lb.ttl()
	nodes := make([]expiry.Node, 4096)
	var wheel expiry.Wheel
	lb.out["expiry.wheel_schedule_cancel_ns"] = lb.timed("expiry.wheel_schedule_cancel", 20000, func(n int) {
		for i := 0; i < n; i++ {
			nd := &nodes[lb.next().key%uint64(len(nodes))]
			wheel.Schedule(nd, wheel.Now()+1+uint64(i)%ttl)
			wheel.Cancel(nd)
		}
	})

	// Fill the wheel with deadlines spread over one TTL, then advance
	// past all of them: the cost per fired timer, cascades included.
	fired := 0
	fire := func(*expiry.Node) { fired++ }
	var w2 expiry.Wheel
	many := make([]expiry.Node, 1<<14)
	var perFire []float64
	deadline := nowNS() + int64(lb.budget)
	for i := 0; lb.more(i, deadline); i++ {
		for j := range many {
			w2.Schedule(&many[j], w2.Now()+1+uint64(j)%ttl)
		}
		fired = 0
		t0 := nowNS()
		w2.Advance(w2.Now()+ttl+1, 0, fire)
		t1 := nowNS()
		if fired != len(many) {
			return fmt.Errorf("expiry: the wheel fired %d of %d timers", fired, len(many))
		}
		lb.spans.add("expiry.wheel_advance", t0, t1, lb.root, fired)
		perFire = append(perFire, float64(t1-t0)/float64(fired))
	}
	lb.out["expiry.wheel_advance_ns_per_fire"] = median(perFire)

	resident := min(int(lb.w.keys), lb.w.capacity)
	lruNodes := make([]expiry.Node, resident)
	var lru expiry.SegLRU
	lru.Init(resident * 4 / 5)
	for i := range lruNodes {
		lruNodes[i].Key = uint64(i)
		lru.Insert(&lruNodes[i])
	}
	lb.out["expiry.seglru_touch_ns"] = lb.timed("expiry.seglru_touch", 20000, func(n int) {
		for i := 0; i < n; i++ {
			lru.Touch(&lruNodes[lb.next().key%uint64(resident)])
		}
	})
	return nil
}

func (lb *layerBench) wireproto() error {
	toReq := func(o *op, id uint64) wireproto.Request {
		r := wireproto.Request{ID: id, Key: o.key}
		switch o.kind {
		case opGet:
			r.Op = wireproto.OpGet
		case opSet:
			r.Op, r.Val = wireproto.OpSet, o.val
		case opSetTTL:
			r.Op, r.Val, r.TTL = wireproto.OpSetTTL, o.val, o.ttl
		case opTouch:
			r.Op, r.TTL = wireproto.OpTouch, o.ttl
		}
		return r
	}
	toResp := func(o *op, id uint64) wireproto.Response {
		switch o.kind {
		case opGet:
			return wireproto.Response{Type: wireproto.RespValue, ID: id, Val: o.key << versionBits}
		case opTouch:
			return wireproto.Response{Type: wireproto.RespTouched, ID: id}
		}
		return wireproto.Response{Type: wireproto.RespStored, ID: id}
	}
	// A window's worth of frames back to back, as a reader sees them.
	const frames = 64
	var reqBuf, respBuf []byte
	for i := 0; i < frames; i++ {
		req, resp := toReq(&lb.ops[i], uint64(i)), toResp(&lb.ops[i], uint64(i))
		reqBuf = wireproto.AppendRequest(reqBuf, &req)
		respBuf = wireproto.AppendResponse(respBuf, &resp)
	}
	buf := make([]byte, 0, 64)
	var derr error
	lb.out["wireproto.encode_req_ns"] = lb.timed("wireproto.encode_req", 20000, func(n int) {
		for i := 0; i < n; i++ {
			req := toReq(lb.next(), uint64(i))
			buf = wireproto.AppendRequest(buf[:0], &req)
		}
	})
	var req wireproto.Request
	lb.out["wireproto.decode_req_ns"] = lb.timed("wireproto.decode_req", 20000, func(n int) {
		rest := reqBuf
		for i := 0; i < n; i++ {
			if len(rest) == 0 {
				rest = reqBuf
			}
			body, used, err := wireproto.Split(rest)
			if err == nil {
				err = wireproto.DecodeRequest(body, &req)
			}
			if err != nil {
				derr = err
				return
			}
			rest = rest[used:]
		}
	})
	lb.out["wireproto.encode_resp_ns"] = lb.timed("wireproto.encode_resp", 20000, func(n int) {
		for i := 0; i < n; i++ {
			resp := toResp(lb.next(), uint64(i))
			buf = wireproto.AppendResponse(buf[:0], &resp)
		}
	})
	var resp wireproto.Response
	lb.out["wireproto.decode_resp_ns"] = lb.timed("wireproto.decode_resp", 20000, func(n int) {
		rest := respBuf
		for i := 0; i < n; i++ {
			if len(rest) == 0 {
				rest = respBuf
			}
			body, used, err := wireproto.Split(rest)
			if err == nil {
				err = wireproto.DecodeResponse(body, &resp)
			}
			if err != nil {
				derr = err
				return
			}
			rest = rest[used:]
		}
	})
	if derr != nil {
		return fmt.Errorf("wireproto replay: %w", derr)
	}
	// One op = one request and its response through all four codec calls.
	const allocOps = 5000
	m0 := mallocs()
	for i := 0; i < allocOps; i++ {
		o := lb.next()
		rq, rs := toReq(o, uint64(i)), toResp(o, uint64(i))
		buf = wireproto.AppendRequest(buf[:0], &rq)
		if body, _, err := wireproto.Split(buf); err == nil {
			derr = wireproto.DecodeRequest(body, &req)
		}
		buf = wireproto.AppendResponse(buf[:0], &rs)
		if body, _, err := wireproto.Split(buf); err == nil && derr == nil {
			derr = wireproto.DecodeResponse(body, &resp)
		}
	}
	lb.out["wireproto.allocs_per_op"] = float64(mallocs()-m0) / allocOps
	if derr != nil {
		return fmt.Errorf("wireproto replay: %w", derr)
	}
	return nil
}

// nullExec answers every op at once: what is left is the frontend.
type nullExec struct{}

func (nullExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	for i := range ops {
		switch ops[i].Kind {
		case wireproto.OpGet:
			results[i].Status, results[i].Val = wireproto.RespValue, ops[i].Key<<versionBits
		case wireproto.OpTouch:
			results[i].Status = wireproto.RespTouched
		default:
			results[i].Status = wireproto.RespStored
		}
	}
}

func (lb *layerBench) frontend() error {
	srv, err := frontend.NewServer(frontend.Config{Execs: []frontend.Exec{nullExec{}}})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }() // returns nil once Close stops the listener
	drive := func(name string, window int) (*recorder, error) {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		defer nc.Close()
		shape := workload{window: window}
		d := newConnDriver(nc, &binaryCodec{}, &shape, nil)
		dur := 4 * lb.budget
		d.rec = newRecorder(time.Now().Add(dur/8), dur, 1<<16)
		t0 := nowNS()
		err = d.run(&wrapSource{lb: lb}, d.rec.end())
		lb.spans.add(name, t0, nowNS(), lb.root, int(d.rec.totalOps()))
		return d.rec, err
	}

	met := srv.Metrics()
	b0, o0, f0 := met.Batches.Load(), met.BatchOps.Load(), met.Flushes.Load()
	in0, out0, fr0 := met.BytesIn.Load(), met.BytesOut.Load(), met.FramesIn.Load()
	rec, err := drive("frontend.null_sat", 64)
	if err != nil {
		return fmt.Errorf("frontend replay: %w", err)
	}
	var perWin []float64
	for i := range rec.wins {
		perWin = append(perWin, float64(rec.wins[i].ops)/(float64(rec.winDur)/1e9))
	}
	lb.out["frontend.null_sat_ops_per_s"] = median(perWin)
	ops := float64(met.BatchOps.Load() - o0)
	lb.out["frontend.ops_per_batch"] = ops / float64(max(met.Batches.Load()-b0, 1))
	lb.out["frontend.ops_per_flush"] = ops / float64(max(met.Flushes.Load()-f0, 1))
	lb.out["frontend.bytes_per_op"] = float64(met.BytesIn.Load()-in0+met.BytesOut.Load()-out0) / float64(max(met.FramesIn.Load()-fr0, 1))

	rec, err = drive("frontend.null_rtt", 1)
	if err != nil {
		return fmt.Errorf("frontend replay: %w", err)
	}
	p50, _, _ := windowPercentiles(rec, 0.5)
	lb.out["frontend.null_rtt_us"] = median(p50)
	lb.out["frontend.queue_sheds"] = float64(met.QueueSheds.Load())
	return nil
}

// wrapSource feeds the stream prefix, wrapping, for as long as a driver
// asks.
type wrapSource struct{ lb *layerBench }

func (s *wrapSource) next() (op, bool) { return *s.lb.next(), true }

func (lb *layerBench) replog() error {
	entry := func(i uint64) []replica.Entry {
		o := lb.next()
		return []replica.Entry{{Index: i, Term: 1, ClientID: 1, Seq: i, Kind: replica.OpSet, Key: o.key, Val: o.val}}
	}
	appendLoop := func(name string, pol replog.SyncPolicy, n0 int) (float64, replog.Stats, error) {
		st, _, err := replog.Open(filepath.Join(lb.dir, name), replog.Options{Sync: pol})
		if err != nil {
			return 0, replog.Stats{}, err
		}
		var aerr error
		next := uint64(1)
		ns := lb.timed("replog."+name, n0, func(n int) {
			for i := 0; i < n; i++ {
				if err := st.AppendEntries(entry(next)); err != nil {
					aerr = err
					return
				}
				next++
			}
		})
		stats := st.Stats()
		if err := st.Close(); aerr == nil {
			aerr = err
		}
		return ns, stats, aerr
	}
	ns, stats, err := appendLoop("append_nosync", replog.SyncNone, 2000)
	if err != nil {
		return fmt.Errorf("replog replay: %w", err)
	}
	lb.out["replog.append_nosync_ns"] = ns
	lb.out["replog.bytes_per_entry"] = float64(stats.Bytes) / float64(max(stats.Appends, 1))
	ns, stats, err = appendLoop("append_sync", replog.SyncAlways, 8)
	if err != nil {
		return fmt.Errorf("replog replay: %w", err)
	}
	lb.out["replog.append_sync_us"] = ns / 1e3
	lb.out["replog.syncs_per_entry"] = float64(stats.Syncs) / float64(max(stats.Appends, 1))

	// Recovery: reopen a log of a fixed length and rebuild a member from
	// it, which is what a restarted process does before it can reply.
	dir := filepath.Join(lb.dir, "recover")
	st, _, err := replog.Open(dir, replog.Options{Sync: replog.SyncNone})
	if err != nil {
		return err
	}
	for i := uint64(1); i <= recoverEntries; i++ {
		if err := st.AppendEntries(entry(i)); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 := nowNS()
	st, rec, err := replog.Open(dir, replog.Options{Sync: replog.SyncNone})
	if err != nil {
		return err
	}
	m := replica.NewMember(apps.NewKVMachine(lb.w.capacity), 0, st)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		return err
	}
	t1 := nowNS()
	lb.spans.add("replog.recover", t0, t1, lb.root, recoverEntries)
	lb.out["replog.recover_ms"] = float64(t1-t0) / 1e6
	if m.LastIndex() != recoverEntries {
		return fmt.Errorf("replog recover: log ends at %d, want %d", m.LastIndex(), recoverEntries)
	}
	return st.Close()
}

// follower is an in-process replication follower on loopback.
type follower struct {
	srv   *reptrans.Server
	store *replog.Store
}

// newFollower starts a follower, memory-only when dir is "" and on a
// WAL in dir under pol otherwise.
func (lb *layerBench) newFollower(dir string, pol replog.SyncPolicy) (*follower, error) {
	f := &follower{}
	var storage replica.Storage
	if dir != "" {
		st, rec, err := replog.Open(dir, replog.Options{Sync: pol})
		if err != nil {
			return nil, err
		}
		if len(rec.Entries) > 0 || rec.Snap != nil {
			st.Close()
			return nil, fmt.Errorf("follower dir %s is not empty", dir)
		}
		f.store, storage = st, st
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := reptrans.ServerConfig{Member: replica.NewMember(apps.NewKVMachine(lb.w.capacity), 0, storage)}
	if f.store != nil {
		cfg.Store = f.store
	}
	f.srv = reptrans.NewServer(ln, cfg)
	return f, nil
}

func (f *follower) close() {
	f.srv.Close()
	if f.store != nil {
		f.store.Close()
	}
}

// proposeLoop times Group.Propose of the stream's writes on g.
func (lb *layerBench) proposeLoop(name string, g *replica.Group, n0 int) (float64, error) {
	lead, _ := g.Leader()
	var perr error
	seq := uint64(0)
	ns := lb.timed(name, n0, func(n int) {
		for i := 0; i < n; i++ {
			o := lb.next()
			seq++
			if _, err := g.Propose(lead, 1, seq, replica.OpSet, o.key, o.key<<versionBits); err != nil {
				perr = err
				return
			}
		}
	})
	return ns, perr
}

// waitHealthy blocks until the leader→follower link is up.
func waitHealthy(p *reptrans.Peer) error {
	deadline := time.Now().Add(readyTimeout)
	for !p.Healthy() {
		if time.Now().After(deadline) {
			return errors.New("replication link never came up")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (lb *layerBench) replication() error {
	machine := func() replica.StateMachine { return apps.NewKVMachine(lb.w.capacity) }

	mem, err := replica.NewGroup(replica.GroupConfig{Replicas: 3, NewMachine: machine})
	if err != nil {
		return err
	}
	ns, err := lb.proposeLoop("replica.propose_mem", mem, 2000)
	if err != nil {
		return fmt.Errorf("replica replay: %w", err)
	}
	lb.out["replica.propose_mem_us"] = ns / 1e3

	// A memory-only leader with one memory-only remote: with the append
	// itself nearly free, the quorum wait is the Peer.Replicate round trip.
	f, err := lb.newFollower("", replog.SyncNone)
	if err != nil {
		return err
	}
	ref := &reptrans.LeaderRef{InitialTerm: 1}
	peer := reptrans.NewPeer(reptrans.PeerConfig{ID: 100, Addr: f.srv.Addr().String(), Leader: ref, Seed: 1})
	g, err := replica.NewGroup(replica.GroupConfig{Replicas: 1, NewMachine: machine, Remotes: []replica.Remote{peer}})
	if err == nil {
		ref.Set(g)
		if err = waitHealthy(peer); err == nil {
			ns, err = lb.proposeLoop("reptrans.replicate_rtt", g, 64)
		}
	}
	peer.Close()
	f.close()
	if err != nil {
		return fmt.Errorf("reptrans replay: %w", err)
	}
	lb.out["reptrans.replicate_rtt_us"] = ns / 1e3

	// The replicated write on disk: a pinned leader on a WAL plus one
	// loopback follower on its own WAL — once as serve-durable-write runs
	// it (no fsync per record), once with fsync always on both sides,
	// which is the cost group commit exists to amortise.
	if _, err := lb.proposeOnDisk("replica.propose_nosync", replog.SyncNone, 64); err != nil {
		return err
	}
	per, err := lb.proposeOnDisk("replica.propose_durable", replog.SyncAlways, 8)
	if err != nil {
		return err
	}
	lb.out["replica.appends_per_commit"], lb.out["replica.fsyncs_per_commit"] = per.appends, per.syncs
	return nil
}

// perCommit is WAL work per committed write, leader and follower summed.
type perCommit struct{ appends, syncs float64 }

// proposeOnDisk times Group.Propose on a WAL-backed pinned leader with
// one loopback follower on its own WAL, both under pol, and records it
// as <name>_us.
func (lb *layerBench) proposeOnDisk(name string, pol replog.SyncPolicy, n0 int) (perCommit, error) {
	f, err := lb.newFollower(filepath.Join(lb.dir, name+"-f1"), pol)
	if err != nil {
		return perCommit{}, err
	}
	defer f.close()
	st, rec, err := replog.Open(filepath.Join(lb.dir, name+"-leader"), replog.Options{Sync: pol})
	if err != nil {
		return perCommit{}, err
	}
	defer st.Close()
	ref := &reptrans.LeaderRef{InitialTerm: rec.Meta.Boots}
	peer := reptrans.NewPeer(reptrans.PeerConfig{ID: 100, Addr: f.srv.Addr().String(), Leader: ref, Seed: 1})
	defer peer.Close()
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:   1,
		NewMachine: func() replica.StateMachine { return apps.NewKVMachine(lb.w.capacity) },
		Storage:    st,
		Recovered:  &replica.RecoveredLeader{Snap: rec.Snap, Entries: rec.Entries},
		Term:       rec.Meta.Boots,
		Remotes:    []replica.Remote{peer},
	})
	if err != nil {
		return perCommit{}, err
	}
	ref.Set(g)
	if err := waitHealthy(peer); err != nil {
		return perCommit{}, err
	}
	l0, f0, c0 := st.Stats(), f.store.Stats(), g.Stats().Commits
	ns, err := lb.proposeLoop(name, g, n0)
	if err != nil {
		return perCommit{}, fmt.Errorf("%s replay: %w", name, err)
	}
	lb.out[name+"_us"] = ns / 1e3
	l1, f1 := st.Stats(), f.store.Stats()
	commits := float64(max(g.Stats().Commits-c0, 1))
	return perCommit{
		appends: float64(l1.Appends-l0.Appends+f1.Appends-f0.Appends) / commits,
		syncs:   float64(l1.Syncs-l0.Syncs+f1.Syncs-f0.Syncs) / commits,
	}, nil
}
