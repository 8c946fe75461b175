// Package frontend is the binary dataplane serving path of ffwdserve: a
// reader goroutine per connection batch-decodes wireproto frames into
// per-shard request queues, a shard executor drains each queue and runs
// the operations through the delegation pool as one pipelined batch, and
// responses are flushed back with one buffered write per connection per
// batch.
//
// The layering mirrors the thesis of the ffwd paper applied to a
// network server: the expensive part of a request is not the hash-table
// operation (a delegated op costs ~hundreds of nanoseconds) but the
// per-request overheads around it — syscalls, goroutine wakeups,
// allocation, lock handoffs. The frontend amortizes all four:
//
//	conns ──► reader (blocking Read, batch decode) ──► shard queues
//	                                                       │ drain ≤ MaxBatch
//	                                                       ▼
//	conns ◄────── one write per conn per batch ◄────── shard executor (Exec)
//
// Responses complete out of order across shards; clients match them to
// requests by ID (see internal/wireproto). Ordering within a single
// shard follows submission order, but the frontend makes no cross-shard
// promise — that is what buys slow operations freedom from
// head-of-line-blocking fast ones.
//
// Ownership rules, which keep the hot path allocation- and lock-free:
// a connection's lifetime ends in one place, its reader's deferred
// close. Executors that hit a write error mark the connection dead and
// close the socket only to unblock that reader. Read buffers are touched
// only by the reader; write buffers are guarded by a per-connection
// mutex because reader (error replies) and executor (batch replies)
// both append.
package frontend

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/wireproto"
)

// Config sizes a Server. Zero values pick sane defaults.
type Config struct {
	// Execs is the shard executor list; one goroutine drains each. Keyed
	// single-op requests hash to a shard by key; mget/len/stats stick to
	// a per-connection shard. Required: at least one.
	Execs []Exec

	// QueueDepth is each shard queue's capacity. A full queue sheds with
	// RespBusy rather than blocking the reader. Default 1024.
	QueueDepth int

	// MaxBatch bounds how many queued requests one executor drain may
	// run as a single pipelined batch. Default 64.
	MaxBatch int

	// MaxConns bounds concurrent connections; excess accepts receive a
	// RespBusy frame and are closed. 0 = unlimited.
	MaxConns int

	// IdleTimeout reaps a connection that sends nothing: no earlier than
	// IdleTimeout and no later than 2 × IdleTimeout after its last byte
	// (the deadline is re-armed only when it fires). 0 = never.
	IdleTimeout time.Duration

	// WriteTimeout bounds each response flush. 0 = no deadline.
	WriteTimeout time.Duration
}

// Server accepts connections and runs the reader/executor loops.
type Server struct {
	cfg     Config
	met     Metrics
	shards  []*shard
	mgFree  chan *mgetBuf
	connSeq atomic.Uint64

	stopping  atomic.Bool
	closeOnce sync.Once
	mu        sync.Mutex // guards lns, conns and the stopping transition
	lns       []net.Listener
	conns     map[*conn]struct{}

	readerWG sync.WaitGroup
	execWG   sync.WaitGroup
}

// conn is one client connection. rbuf/rlen are owned by the reader;
// wbuf is shared under wmu.
type conn struct {
	srv *Server
	nc  net.Conn

	shard int // fixed shard for conn-affine ops (mget/len/stats)

	rbuf []byte
	rlen int
	req  wireproto.Request
	keys [wireproto.MGetMax]uint64

	wmu  sync.Mutex
	wbuf []byte

	dead atomic.Bool
}

// mgetBuf carries an mget key list from reader to executor without
// allocating; buffers cycle through Server.mgFree.
type mgetBuf struct {
	n    int
	keys [wireproto.MGetMax]uint64
}

const initialRbuf = 4096

var errNoExecs = errors.New("frontend: Config.Execs is empty")

// busyFrame is the pre-encoded RespBusy (id 0) sent to admission-rejected
// connections.
var busyFrame = wireproto.AppendResponse(nil, &wireproto.Response{Type: wireproto.RespBusy})

// NewServer starts one executor goroutine per shard. The caller feeds it
// listeners via Serve.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Execs) == 0 {
		return nil, errNoExecs
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxBatch > cfg.QueueDepth {
		cfg.MaxBatch = cfg.QueueDepth
	}
	s := &Server{cfg: cfg, mgFree: make(chan *mgetBuf, cfg.QueueDepth), conns: make(map[*conn]struct{})}
	for _, e := range cfg.Execs {
		sh := newShard(s, e, cfg.QueueDepth, cfg.MaxBatch)
		s.shards = append(s.shards, sh)
		s.execWG.Add(1)
		go sh.run()
	}
	return s, nil
}

// Metrics exposes the server's counters; (*Server).StatRows declares
// them for the stats sinks.
func (s *Server) Metrics() *Metrics { return &s.met }

// Shards returns the executor count.
func (s *Server) Shards() int { return len(s.shards) }

// QueueDepth returns the current total queued requests across shards and
// the aggregate capacity.
func (s *Server) QueueDepth() (depth, capacity int) {
	for _, sh := range s.shards {
		depth += len(sh.q)
		capacity += cap(sh.q)
	}
	return depth, capacity
}

// Serve accepts connections on ln until the listener closes. It returns
// nil when the server is shutting down.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.stopping.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.stopping.Load() {
				return nil
			}
			return err
		}
		s.met.Accepted.Add(1)
		if s.cfg.MaxConns > 0 && s.met.Active.Load() >= int64(s.cfg.MaxConns) {
			s.met.Rejected.Add(1)
			rejectBusy(nc)
			continue
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.stopping.Load() {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		c := s.newConn(nc)
		s.conns[c] = struct{}{}
		s.readerWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

func rejectBusy(nc net.Conn) {
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	nc.Write(busyFrame)
	nc.Close()
}

// Drain waits up to timeout for all connections to disappear, then
// force-closes whatever remains and shuts the server down. It returns
// the number of connections force-closed.
func (s *Server) Drain(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && s.met.Active.Load() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	forced := int(s.met.Active.Load())
	s.Close()
	return forced
}

// Close stops listeners, readers, and executors, closing every
// connection; it returns after every reader goroutine has exited.
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.stopping.Store(true)
		for _, ln := range s.lns {
			ln.Close()
		}
		for c := range s.conns {
			c.kill()
		}
		s.mu.Unlock()
		s.readerWG.Wait()
		for _, sh := range s.shards {
			close(sh.q)
		}
		s.execWG.Wait()
	})
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		srv:  s,
		nc:   nc,
		rbuf: make([]byte, initialRbuf),
		wbuf: make([]byte, 0, initialRbuf),
	}
	c.shard = int(s.connSeq.Add(1) % uint64(len(s.shards)))
	c.req.Keys = c.keys[:0]
	s.met.Active.Add(1)
	return c
}

// shardOfKey spreads single-key ops across shards with a Fibonacci
// multiplicative hash — sequential keys must not all land on one shard.
func shardOfKey(key uint64, n int) int {
	return int((key * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}

func (s *Server) getMG() *mgetBuf {
	select {
	case b := <-s.mgFree:
		return b
	default:
		return new(mgetBuf)
	}
}

func (s *Server) putMG(b *mgetBuf) {
	select {
	case s.mgFree <- b:
	default:
	}
}

// decodeConn decodes every complete frame currently in c's read buffer,
// dispatching each to its shard queue, then compacts the buffer. It
// returns false when the connection must close (framing lost); the last
// error response has already been queued and flushed.
func (s *Server) decodeConn(c *conn) bool {
	consumed := 0
	for {
		body, n, err := wireproto.Split(c.rbuf[consumed:c.rlen])
		if err == wireproto.ErrShort {
			break
		}
		if err != nil {
			s.met.DecodeErrors.Add(1)
			c.sendError(0, 0, wireproto.CodeMalformed)
			return false
		}
		consumed += n
		if derr := wireproto.DecodeRequest(body, &c.req); derr != nil {
			s.met.DecodeErrors.Add(1)
			code := wireproto.CodeMalformed
			if derr == wireproto.ErrBadOp {
				code = wireproto.CodeBadOp
			}
			c.sendError(0, 0, code)
			return false
		}
		s.met.FramesIn.Add(1)
		s.dispatch(c, &c.req)
	}
	if consumed > 0 {
		copy(c.rbuf, c.rbuf[consumed:c.rlen])
		c.rlen -= consumed
	}
	// A frame larger than the buffer can never complete: grow toward the
	// protocol bound. Split already rejected anything beyond it.
	if c.rlen == len(c.rbuf) && len(c.rbuf) < wireproto.MaxFrame+4 {
		nb := 2 * len(c.rbuf)
		if nb > wireproto.MaxFrame+4 {
			nb = wireproto.MaxFrame + 4
		}
		grown := make([]byte, nb)
		copy(grown, c.rbuf[:c.rlen])
		c.rbuf = grown
	}
	return true
}

// dispatch routes one decoded request to its shard queue, shedding with
// RespBusy when the queue is full and pre-answering requests no executor
// should see.
func (s *Server) dispatch(c *conn, r *wireproto.Request) {
	t := task{c: c, op: r.Op, flags: r.Flags, id: r.ID, key: r.Key, val: r.Val, ttl: r.TTL}
	var sh *shard
	switch r.Op {
	case wireproto.OpGet, wireproto.OpSet, wireproto.OpDel, wireproto.OpSetTTL, wireproto.OpTouch:
		if (r.Op == wireproto.OpSet || r.Op == wireproto.OpSetTTL) && r.Val == wireproto.MissValue {
			c.sendError(r.ID, r.Flags, wireproto.CodeValueReserved)
			return
		}
		sh = s.shards[shardOfKey(r.Key, len(s.shards))]
	case wireproto.OpMGet:
		mg := s.getMG()
		mg.n = copy(mg.keys[:], r.Keys)
		t.mg = mg
		sh = s.shards[c.shard]
	default: // OpLen, OpStats — DecodeRequest admits nothing else
		sh = s.shards[c.shard]
	}
	select {
	case sh.q <- t:
	default:
		if t.mg != nil {
			s.putMG(t.mg)
		}
		s.met.QueueSheds.Add(1)
		c.sendBusy(r.ID, r.Flags)
	}
}

// appendResp encodes one response into the connection's write buffer.
func (c *conn) appendResp(r *wireproto.Response) {
	c.wmu.Lock()
	c.wbuf = wireproto.AppendResponse(c.wbuf, r)
	c.wmu.Unlock()
}

// flush writes the buffered responses in one syscall. A write error
// kills the connection.
func (c *conn) flush() {
	c.wmu.Lock()
	if len(c.wbuf) == 0 || c.dead.Load() {
		c.wbuf = c.wbuf[:0]
		c.wmu.Unlock()
		return
	}
	if c.srv.cfg.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	}
	n, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	c.wmu.Unlock()
	c.srv.met.BytesOut.Add(uint64(n))
	c.srv.met.Flushes.Add(1)
	if err != nil {
		c.kill()
	}
}

// kill marks the connection dead and closes the socket to unblock its
// reader, which does the accounting and the final close on its way out
// (serveConn). Safe from any goroutine.
func (c *conn) kill() {
	if !c.dead.Swap(true) {
		c.nc.Close()
	}
}

func (c *conn) sendError(id uint64, flags uint8, code uint16) {
	c.appendResp(&wireproto.Response{
		Type:  wireproto.RespError,
		Flags: flags & wireproto.FlagCRC,
		ID:    id,
		Code:  code,
	})
	c.flush()
}

func (c *conn) sendBusy(id uint64, flags uint8) {
	c.appendResp(&wireproto.Response{
		Type:  wireproto.RespBusy,
		Flags: flags & wireproto.FlagCRC,
		ID:    id,
	})
	c.flush()
}
