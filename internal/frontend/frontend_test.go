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
// execution of Set on slowKey (or of every op when gateAll) until the
// gate channel closes, to build head-of-line and queue-pressure
// scenarios. mu makes one instance shareable across shards.
type mapExec struct {
	mu           sync.Mutex
	m            map[uint64]uint64
	hits, misses uint64

	gate    chan struct{}
	slowKey uint64
	gateAll bool
}

func newMapExec() *mapExec { return &mapExec{m: make(map[uint64]uint64)} }

func (e *mapExec) ExecBatch(ops []Op, results []Result) {
	for i := range ops {
		op, res := &ops[i], &results[i]
		if e.gate != nil && (e.gateAll || (op.Kind == wireproto.OpSet && op.Key == e.slowKey)) {
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

// TestPipelinedOutOfOrder pins the tentpole ordering property: a slow
// SET on one shard must not head-of-line-block fast GETs on another
// shard issued later on the same connection. Responses are matched by
// request ID, which must round-trip exactly.
func TestPipelinedOutOfOrder(t *testing.T) {
	slow, fast := newMapExec(), newMapExec()
	gate := make(chan struct{})
	slow.gate, slow.gateAll = gate, true
	s, addr := startServer(t, Config{Execs: []Exec{slow, fast}})
	c := dialT(t, addr)

	// Pick keys by shard: slowKey routes to shard 0, fastKeys to 1.
	var slowKey uint64
	var fastKeys []uint64
	for k := uint64(1); len(fastKeys) < 4 || slowKey == 0; k++ {
		if shardOfKey(k, s.Shards()) == 0 {
			if slowKey == 0 {
				slowKey = k
			}
		} else if len(fastKeys) < 4 {
			fastKeys = append(fastKeys, k)
		}
	}

	reqs := []*wireproto.Request{{Op: wireproto.OpSet, ID: 100, Key: slowKey, Val: 1}}
	for i, k := range fastKeys {
		reqs = append(reqs, &wireproto.Request{Op: wireproto.OpGet, ID: uint64(200 + i), Key: k})
	}
	c.send(reqs...)

	// All GET replies must arrive while the SET is still gated.
	for i := range fastKeys {
		r := c.recv()
		if r.ID < 200 || r.ID > 203 {
			t.Fatalf("reply %d has id %d; slow SET overtook fast GETs", i, r.ID)
		}
		if r.Type != wireproto.RespNotFound {
			t.Fatalf("get: %+v", r)
		}
	}
	close(gate)
	if r := c.recv(); r.ID != 100 || r.Type != wireproto.RespStored {
		t.Fatalf("slow set: %+v", r)
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

// TestQueueShed pins that a full shard queue answers RespBusy with the
// request's ID instead of blocking the reader.
func TestQueueShed(t *testing.T) {
	e := newMapExec()
	gate := make(chan struct{})
	e.gate, e.gateAll = gate, true
	s, addr := startServer(t, Config{Execs: []Exec{e}, QueueDepth: 1})
	c := dialT(t, addr)

	const n = 8
	reqs := make([]*wireproto.Request, n)
	for i := range reqs {
		reqs[i] = &wireproto.Request{Op: wireproto.OpGet, ID: uint64(i + 1), Key: uint64(i)}
	}
	c.send(reqs...)

	// Busy replies come back immediately for everything past the queue.
	busy := 0
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		if i == n-3 {
			// Whatever is still queued completes once the gate opens.
			close(gate)
		}
		r := c.recv()
		if seen[r.ID] {
			t.Fatalf("duplicate reply id %d", r.ID)
		}
		seen[r.ID] = true
		if r.Type == wireproto.RespBusy {
			busy++
		} else if r.Type != wireproto.RespNotFound {
			t.Fatalf("reply: %+v", r)
		}
	}
	if busy < n-2 {
		t.Fatalf("busy replies: %d, want >= %d", busy, n-2)
	}
	if got := s.Metrics().QueueSheds.Load(); got != uint64(busy) {
		t.Fatalf("shed counter %d != busy replies %d", got, busy)
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

// TestOrderedRepliesInPosition pins what an ordered codec promises: the
// replies to one write come back in request order — executor results and
// the replies decode already knew interleaved as sent, a blank line
// answered by nothing — and quit closes after everything before it has
// been flushed, with nothing after it run.
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
