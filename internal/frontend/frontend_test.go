package frontend

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ffwd/internal/wireproto"
)

// mapExec is a plain in-memory Exec for tests. An optional gate blocks
// every op until the gate channel closes, signalling entered (when set)
// as it blocks, to build pool-pressure scenarios. mu makes one instance
// shareable across pooled executors.
type mapExec struct {
	mu           sync.Mutex
	m            map[uint64]uint64
	hits, misses uint64

	gate, entered chan struct{}
}

func newMapExec() *mapExec { return &mapExec{m: make(map[uint64]uint64)} }

func (e *mapExec) ExecBatch(ops []Op, results []Result) {
	for i := range ops {
		op, res := &ops[i], &results[i]
		if e.gate != nil {
			select {
			case e.entered <- struct{}{}:
			default:
			}
			<-e.gate
		}
		e.mu.Lock()
		switch op.Kind {
		case wireproto.OpGet:
			if v, ok := e.m[op.Key]; ok {
				e.hits++
				res.Status, res.Val = wireproto.RespValue, v
			} else {
				e.misses++
				res.Status = wireproto.RespNotFound
			}
		case wireproto.OpSet:
			e.m[op.Key] = op.Val
			res.Status = wireproto.RespStored
		case wireproto.OpDel:
			if _, ok := e.m[op.Key]; ok {
				delete(e.m, op.Key)
				res.Status = wireproto.RespDeleted
			} else {
				res.Status = wireproto.RespNotFound
			}
		case wireproto.OpMGet:
			res.Status = wireproto.RespValues
			for j, k := range op.Keys {
				if v, ok := e.m[k]; ok {
					e.hits++
					res.Vals[j] = v
				} else {
					e.misses++
					res.Vals[j] = wireproto.MissValue
				}
			}
		case wireproto.OpLen:
			res.Status, res.Val = wireproto.RespLen, uint64(len(e.m))
		case wireproto.OpStats:
			res.Status = wireproto.RespStats
			res.Hits, res.Misses = e.hits, e.misses
		}
		e.mu.Unlock()
	}
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

// tclient is a minimal wireproto TCP client for tests.
type tclient struct {
	t    *testing.T
	nc   net.Conn
	rbuf []byte
	rlen int
}

func dialT(t *testing.T, addr string) *tclient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &tclient{t: t, nc: nc, rbuf: make([]byte, 64<<10)}
}

func (c *tclient) send(reqs ...*wireproto.Request) {
	c.t.Helper()
	var buf []byte
	for _, r := range reqs {
		buf = wireproto.AppendRequest(buf, r)
	}
	if _, err := c.nc.Write(buf); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

// recv blocks for the next response frame; Vals is copied out of the
// stream buffer.
func (c *tclient) recv() wireproto.Response {
	c.t.Helper()
	resp, err := c.tryRecv()
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	return resp
}

func (c *tclient) tryRecv() (wireproto.Response, error) {
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp wireproto.Response
	for {
		body, n, err := wireproto.Split(c.rbuf[:c.rlen])
		if err == nil {
			if derr := wireproto.DecodeResponse(body, &resp); derr != nil {
				return resp, derr
			}
			resp.Vals = append([]uint64(nil), resp.Vals...)
			copy(c.rbuf, c.rbuf[n:c.rlen])
			c.rlen -= n
			return resp, nil
		}
		if err != wireproto.ErrShort {
			return resp, err
		}
		rn, rerr := c.nc.Read(c.rbuf[c.rlen:])
		if rn > 0 {
			c.rlen += rn
			continue
		}
		if rerr != nil {
			return resp, rerr
		}
	}
}

// TestEndToEndOps drives every operation through a real TCP connection
// and its reader, with and without CRC framing.
func TestEndToEndOps(t *testing.T) {
	_, addr := startServer(t, Config{Execs: []Exec{newMapExec()}})
	c := dialT(t, addr)

	for _, flags := range []uint8{0, wireproto.FlagCRC} {
		c.send(&wireproto.Request{Op: wireproto.OpGet, Flags: flags, ID: 1, Key: 7})
		if r := c.recv(); r.Type != wireproto.RespNotFound || r.ID != 1 || r.Flags != flags {
			t.Fatalf("get miss: %+v", r)
		}
		c.send(&wireproto.Request{Op: wireproto.OpSet, Flags: flags, ID: 2, Key: 7, Val: 700})
		if r := c.recv(); r.Type != wireproto.RespStored || r.ID != 2 {
			t.Fatalf("set: %+v", r)
		}
		c.send(&wireproto.Request{Op: wireproto.OpGet, Flags: flags, ID: 3, Key: 7})
		if r := c.recv(); r.Type != wireproto.RespValue || r.Val != 700 {
			t.Fatalf("get hit: %+v", r)
		}
		c.send(&wireproto.Request{Op: wireproto.OpMGet, Flags: flags, ID: 4, Keys: []uint64{7, 8}})
		r := c.recv()
		if r.Type != wireproto.RespValues || len(r.Vals) != 2 || r.Vals[0] != 700 || r.Vals[1] != wireproto.MissValue {
			t.Fatalf("mget: %+v", r)
		}
		c.send(&wireproto.Request{Op: wireproto.OpLen, Flags: flags, ID: 5})
		if r := c.recv(); r.Type != wireproto.RespLen || r.Val != 1 {
			t.Fatalf("len: %+v", r)
		}
		c.send(&wireproto.Request{Op: wireproto.OpStats, Flags: flags, ID: 6})
		if r := c.recv(); r.Type != wireproto.RespStats || r.Hits == 0 {
			t.Fatalf("stats: %+v", r)
		}
		c.send(&wireproto.Request{Op: wireproto.OpDel, Flags: flags, ID: 7, Key: 7})
		if r := c.recv(); r.Type != wireproto.RespDeleted {
			t.Fatalf("del: %+v", r)
		}
	}
}

// TestMGetMaxKeys round-trips the largest legal mget through the
// connection's fixed decode scratch.
func TestMGetMaxKeys(t *testing.T) {
	_, addr := startServer(t, Config{Execs: []Exec{newMapExec()}})
	c := dialT(t, addr)
	keys := make([]uint64, wireproto.MGetMax)
	for i := range keys {
		keys[i] = uint64(i)
	}
	c.send(&wireproto.Request{Op: wireproto.OpSet, ID: 1, Key: 5, Val: 50})
	c.recv()
	c.send(&wireproto.Request{Op: wireproto.OpMGet, ID: 2, Keys: keys})
	r := c.recv()
	if len(r.Vals) != wireproto.MGetMax || r.Vals[5] != 50 || r.Vals[6] != wireproto.MissValue {
		t.Fatalf("mget max: %+v", r)
	}
}

// TestReservedValueSet pins that storing MissValue is refused without
// reaching an executor and without desynchronizing the stream.
func TestReservedValueSet(t *testing.T) {
	_, addr := startServer(t, Config{Execs: []Exec{newMapExec()}})
	c := dialT(t, addr)
	c.send(&wireproto.Request{Op: wireproto.OpSet, ID: 9, Key: 1, Val: wireproto.MissValue})
	if r := c.recv(); r.Type != wireproto.RespError || r.Code != wireproto.CodeValueReserved || r.ID != 9 {
		t.Fatalf("reserved set: %+v", r)
	}
	// The connection is still alive and well-framed.
	c.send(&wireproto.Request{Op: wireproto.OpLen, ID: 10})
	if r := c.recv(); r.Type != wireproto.RespLen || r.ID != 10 {
		t.Fatalf("len after reserved set: %+v", r)
	}
}

// TestBinaryRepliesInOrder pins that a pipelined burst on one binary
// connection comes back in request order, each reply echoing its
// request's ID, across several batches and a wide op in the middle.
func TestBinaryRepliesInOrder(t *testing.T) {
	e := newMapExec()
	_, addr := startServer(t, Config{Execs: []Exec{e, e}, MaxBatch: 8})
	c := dialT(t, addr)
	const n = 100
	reqs := make([]*wireproto.Request, n)
	for i := range reqs {
		id, key := uint64(1000+7*i), uint64(i/2)
		switch {
		case i == n/2+1:
			reqs[i] = &wireproto.Request{Op: wireproto.OpMGet, ID: id, Keys: []uint64{0, 1, n}}
		case i%2 == 0:
			reqs[i] = &wireproto.Request{Op: wireproto.OpSet, ID: id, Key: key, Val: key + 1}
		default:
			reqs[i] = &wireproto.Request{Op: wireproto.OpGet, ID: id, Key: key}
		}
	}
	c.send(reqs...)
	for i, req := range reqs {
		r := c.recv()
		if r.ID != req.ID {
			t.Fatalf("reply %d has id %d, want %d: replies out of request order", i, r.ID, req.ID)
		}
		switch req.Op {
		case wireproto.OpSet:
			if r.Type != wireproto.RespStored {
				t.Fatalf("set %d: %+v", i, r)
			}
		case wireproto.OpGet:
			if r.Type != wireproto.RespValue || r.Val != req.Key+1 {
				t.Fatalf("get %d: %+v", i, r)
			}
		case wireproto.OpMGet:
			if r.Type != wireproto.RespValues || len(r.Vals) != 3 || r.Vals[0] != 1 || r.Vals[1] != 2 || r.Vals[2] != wireproto.MissValue {
				t.Fatalf("mget %d: %+v", i, r)
			}
		}
	}
}

// TestMalformedFrameCloses pins that an undecodable frame draws a typed
// error response and a connection close, never a hang or a panic.
func TestMalformedFrameCloses(t *testing.T) {
	s, addr := startServer(t, Config{Execs: []Exec{newMapExec()}})
	cases := []struct {
		name string
		raw  []byte
		code uint16
	}{
		{"oversize length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}, wireproto.CodeMalformed},
		{"unknown op", func() []byte {
			b := wireproto.AppendRequest(nil, &wireproto.Request{Op: wireproto.OpLen, ID: 1})
			b[4] = 0x7F
			return b
		}(), wireproto.CodeBadOp},
		{"truncated payload", func() []byte {
			b := wireproto.AppendRequest(nil, &wireproto.Request{Op: wireproto.OpSet, ID: 1, Key: 1, Val: 2})
			b[0] -= 8 // shrink declared length: set payload now malformed
			return b[:len(b)-8]
		}(), wireproto.CodeMalformed},
	}
	for _, tc := range cases {
		c := dialT(t, addr)
		if _, err := c.nc.Write(tc.raw); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		r, err := c.tryRecv()
		if err != nil {
			t.Fatalf("%s: expected error frame, got %v", tc.name, err)
		}
		if r.Type != wireproto.RespError || r.Code != tc.code {
			t.Fatalf("%s: %+v", tc.name, r)
		}
		if _, err := c.tryRecv(); err != io.EOF {
			t.Fatalf("%s: expected close, got %v", tc.name, err)
		}
	}
	if s.Metrics().DecodeErrors.Load() != uint64(len(cases)) {
		t.Fatalf("decode errors: %d", s.Metrics().DecodeErrors.Load())
	}
}

// TestQueueShed pins the overload answer: while the pool's only
// executor is held, a batch that waits past ShedTimeout is answered
// RespBusy request by request, each with its ID, every shed is counted,
// and the connection serves again once the executor returns.
func TestQueueShed(t *testing.T) {
	e := newMapExec()
	gate := make(chan struct{})
	e.gate, e.entered = gate, make(chan struct{}, 1)
	s, addr := startServer(t, Config{Execs: []Exec{e}, ShedTimeout: time.Millisecond})
	holder := dialT(t, addr)
	holder.send(&wireproto.Request{Op: wireproto.OpLen, ID: 1})
	<-e.entered // the pool is saturated

	c := dialT(t, addr)
	const n = 8
	reqs := make([]*wireproto.Request, n)
	for i := range reqs {
		reqs[i] = &wireproto.Request{Op: wireproto.OpGet, ID: uint64(i + 1), Key: uint64(i)}
	}
	c.send(reqs...)
	for i := range reqs {
		if r := c.recv(); r.Type != wireproto.RespBusy || r.ID != uint64(i+1) {
			t.Fatalf("saturated reply %d: %+v, want RespBusy with id %d", i, r, i+1)
		}
	}
	if got := s.Metrics().QueueSheds.Load(); got != n {
		t.Fatalf("shed counter %d != busy replies %d", got, n)
	}

	close(gate)
	if r := holder.recv(); r.Type != wireproto.RespLen || r.ID != 1 {
		t.Fatalf("held request: %+v", r)
	}
	c.send(&wireproto.Request{Op: wireproto.OpGet, ID: 100, Key: 1})
	if r := c.recv(); r.Type != wireproto.RespNotFound || r.ID != 100 {
		t.Fatalf("after release: %+v", r)
	}
}

// TestAdmissionMaxConns pins connection-count admission: excess
// connections receive one RespBusy frame and a close.
func TestAdmissionMaxConns(t *testing.T) {
	s, addr := startServer(t, Config{Execs: []Exec{newMapExec()}, MaxConns: 1})
	keep := dialT(t, addr)
	keep.send(&wireproto.Request{Op: wireproto.OpLen, ID: 1})
	keep.recv() // first connection fully registered

	turned := dialT(t, addr)
	r, err := turned.tryRecv()
	if err != nil {
		t.Fatalf("busy frame: %v", err)
	}
	if r.Type != wireproto.RespBusy {
		t.Fatalf("admission reply: %+v", r)
	}
	if _, err := turned.tryRecv(); err != io.EOF {
		t.Fatalf("expected close after busy, got %v", err)
	}
	if s.Metrics().Rejected.Load() != 1 {
		t.Fatalf("rejected: %d", s.Metrics().Rejected.Load())
	}
}

// TestDrain pins graceful shutdown: an idle server drains clean; a held
// connection is force-closed and counted.
func TestDrain(t *testing.T) {
	s, addr := startServer(t, Config{Execs: []Exec{newMapExec()}})
	c := dialT(t, addr)
	c.send(&wireproto.Request{Op: wireproto.OpLen, ID: 1})
	c.recv()
	if forced := s.Drain(50 * time.Millisecond); forced != 1 {
		t.Fatalf("forced: %d, want 1", forced)
	}
	if _, err := c.tryRecv(); err == nil {
		t.Fatal("connection survived drain")
	}
}

// TestIdleReap pins the lazily armed idle deadline: a connection that
// keeps talking is never reaped and its reads never touch the deadline,
// a silent one is reaped within [IdleTimeout, 2 × IdleTimeout] of its
// last byte, and a deadline that fires on an active connection is a
// re-arm, not a counted reap.
func TestIdleReap(t *testing.T) {
	const idle = 300 * time.Millisecond
	s, wl := startWrapped(t, Config{Execs: []Exec{newMapExec()}, IdleTimeout: idle})
	opened := time.Now()
	c := dialT(t, wl.Addr().String())
	ping := func(id uint64) {
		t.Helper()
		c.send(&wireproto.Request{Op: wireproto.OpLen, ID: id})
		if r := c.recv(); r.ID != id {
			t.Fatalf("reply id %d, want %d", r.ID, id)
		}
	}

	// A ping-pong burst: the deadline was armed once, at accept, and no
	// read that follows another this closely may arm it again.
	for id := uint64(1); id <= 100; id++ {
		ping(id)
	}
	if burst := time.Since(opened); burst < idle/2 {
		if n := wl.last().readDeadlines.Load(); n != 1 {
			t.Fatalf("%d SetReadDeadline calls across a %v burst of 100 requests, want 1 (armed at accept)", n, burst)
		}
	}

	// One request every IdleTimeout/3 for 3 × IdleTimeout: deadlines fire
	// in between, every one finds the connection active and re-arms.
	var sent time.Time
	for i := uint64(0); i < 9; i++ {
		time.Sleep(idle / 3)
		sent = time.Now()
		ping(200 + i)
	}
	if n := s.Metrics().IdleReaps.Load(); n != 0 {
		t.Fatalf("%d idle reaps on a connection that never went quiet", n)
	}

	// Silence: the server read the last byte between sent and answered.
	answered := time.Now()
	if _, err := c.tryRecv(); err == nil {
		t.Fatal("read succeeded on reaped connection")
	}
	if quiet := time.Since(sent); quiet < idle {
		t.Fatalf("reaped %v after its last byte, before IdleTimeout %v", quiet, idle)
	}
	if quiet, slack := time.Since(answered), idle/2; quiet > 2*idle+slack {
		t.Fatalf("reaped %v after its last byte, want within 2 × IdleTimeout %v (+%v slack)", quiet, idle, slack)
	}
	if n := s.Metrics().IdleReaps.Load(); n != 1 {
		t.Fatalf("idle reaps: %d, want 1", n)
	}
}

// TestBatchingMetrics pins that one pipelined burst executes in fewer
// flushes than operations — the single-write-per-batch property.
func TestBatchingMetrics(t *testing.T) {
	s, addr := startServer(t, Config{Execs: []Exec{newMapExec()}})
	c := dialT(t, addr)
	const n = 32
	reqs := make([]*wireproto.Request, n)
	for i := range reqs {
		reqs[i] = &wireproto.Request{Op: wireproto.OpSet, ID: uint64(i + 1), Key: uint64(i), Val: uint64(i)}
	}
	c.send(reqs...)
	for i := 0; i < n; i++ {
		c.recv()
	}
	m := s.Metrics()
	if m.BatchOps.Load() != n {
		t.Fatalf("batch ops: %d", m.BatchOps.Load())
	}
	if m.Batches.Load() >= n {
		t.Fatalf("no batching: %d batches for %d ops", m.Batches.Load(), n)
	}
	if m.Flushes.Load() >= n {
		t.Fatalf("no write combining: %d flushes for %d ops", m.Flushes.Load(), n)
	}
}

// TestOrderedRepliesInPosition pins, on the line codec, whose clients
// match replies by position, what every codec promises: the replies to
// one write come back in request order — executor results and the
// replies decode already knew interleaved as sent, a blank line answered
// by nothing — and quit closes after everything before it has been
// flushed, with nothing after it run.
func TestOrderedRepliesInPosition(t *testing.T) {
	e := newMapExec()
	_, addr := startServer(t, Config{Codec: Text{}, Execs: []Exec{e, e}})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("set 1 1\nbogus\nget 1\nget x\n\nget 1\nquit\nset 1 2\n")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(nc)
	want := "STORED\n" + UsageMsg + "\nVALUE 1\nERROR bad number \"x\"\nVALUE 1\n"
	if err != nil || string(got) != want {
		t.Fatalf("replies = %q, %v; want %q then EOF", got, err, want)
	}
	if v := e.m[1]; v != 1 {
		t.Fatalf("key 1 = %d: the set behind quit ran", v)
	}
}
