// Package frontend is the serving path of ffwdserve, one connection
// lifecycle for every wire protocol: a reader goroutine per connection
// batch-decodes requests through the Server's Codec, executors run them
// through the delegation pool as pipelined batches, and replies are
// flushed back with one buffered write per connection per batch.
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
// That is the path of the binary codec. Its responses complete out of
// order across shards; clients match them to requests by ID (see
// internal/wireproto). Ordering within a single shard follows submission
// order, but there is no cross-shard promise — that is what buys slow
// operations freedom from head-of-line-blocking fast ones.
//
// A codec whose clients match replies by position (Text) is ordered: its
// reader skips the queues, collects what one Read decoded (≤ MaxBatch),
// borrows an executor from the pool of Config.Execs and runs the same
// batch code itself, so replies leave in request order by construction:
//
//	conn ──► reader ─ decode ─ borrow Exec ─ batch ─ one write ──► conn
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
	// Codec is the wire format. nil = Binary.
	Codec Codec

	// Execs is the executor list. Required: at least one. Under an
	// unordered codec each is a shard and one goroutine drains its queue:
	// keyed single-op requests hash to a shard by key, mget/len/stats stick
	// to a per-connection shard. Under an ordered codec they form the pool
	// connections borrow from, one executor per batch.
	Execs []Exec

	// ShedTimeout bounds how long an ordered connection's batch waits for
	// a pooled executor before every request in it is answered busy.
	// 0 = wait forever.
	ShedTimeout time.Duration

	// QueueDepth is each shard queue's capacity. A full queue sheds with
	// RespBusy rather than blocking the reader. Default 1024.
	QueueDepth int

	// MaxBatch bounds how many requests run as a single pipelined batch.
	// Default 64.
	MaxBatch int

	// MaxConns bounds concurrent connections; excess accepts receive the
	// codec's Reject bytes and are closed. 0 = unlimited.
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
	traits  Traits
	met     Metrics
	shards  []*shard  // unordered codec: one queue executor per Exec
	pool    chan Exec // ordered codec: the executors, lent a batch at a time
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

	shard int    // fixed shard for conn-affine ops (mget/len/stats)
	b     *batch // ordered codec: this connection's batch, grown on demand

	rbuf []byte
	rlen int
	req  Request

	wmu  sync.Mutex
	wbuf []byte

	dead atomic.Bool
}

const initialRbuf = 4096

var errNoExecs = errors.New("frontend: Config.Execs is empty")

// NewServer starts one executor goroutine per shard (unordered codec) or
// fills the executor pool (ordered). The caller feeds it listeners via
// Serve.
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
	if cfg.Codec == nil {
		cfg.Codec = Binary{}
	}
	s := &Server{cfg: cfg, traits: cfg.Codec.Traits(),
		mgFree: make(chan *mgetBuf, cfg.QueueDepth), conns: make(map[*conn]struct{})}
	if s.traits.Ordered {
		s.pool = make(chan Exec, len(cfg.Execs))
		for _, e := range cfg.Execs {
			s.pool <- e
		}
		return s, nil
	}
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

// Shards returns the queue executor count (0 under an ordered codec).
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
			nc.SetWriteDeadline(time.Now().Add(time.Second))
			nc.Write(s.traits.Reject)
			nc.Close()
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
	if s.traits.Ordered {
		c.b = &batch{s: s}
	} else {
		c.shard = int(s.connSeq.Add(1) % uint64(len(s.shards)))
	}
	s.met.Active.Add(1)
	return c
}

// shardOfKey spreads single-key ops across shards with a Fibonacci
// multiplicative hash — sequential keys must not all land on one shard.
func shardOfKey(key uint64, n int) int {
	return int((key * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}

// decodeConn decodes every complete request currently in c's read
// buffer — each to its shard queue, or into the connection's own batch
// when replies are ordered — then compacts the buffer. It returns false
// when the connection must close (quit, or framing lost); everything owed
// has already been flushed.
func (s *Server) decodeConn(c *conn) bool {
	consumed, open := 0, true
	r := &c.req
	for open {
		n, v := s.cfg.Codec.Decode(c.rbuf[consumed:c.rlen], r)
		if v == More {
			break
		}
		consumed += n
		if v&Malformed != 0 {
			s.met.DecodeErrors.Add(1)
			v &^= Malformed
		}
		if v == Run {
			s.met.FramesIn.Add(1)
			if (r.Op == wireproto.OpSet || r.Op == wireproto.OpSetTTL) && r.Val == wireproto.MissValue {
				r.Reply, v = s.cfg.Codec.Append(r.Reply[:0], r.ID, r.Flags, &reservedValue), Reply
			}
		}
		open = v != Close
		switch b := c.b; {
		case v == Run && b == nil:
			s.dispatch(c, r)
		case v == Run:
			b.tasks = append(b.tasks, s.newTask(c, r))
		case b == nil:
			c.send(r.Reply)
		case len(r.Reply) > 0:
			// Nothing overtakes: the reply waits its turn in the batch.
			b.tasks, b.pre = append(b.tasks, task{c: c, val: uint64(len(r.Reply))}), append(b.pre, r.Reply...)
		}
		if c.b != nil && len(c.b.tasks) == s.cfg.MaxBatch {
			c.b.process()
		}
	}
	if c.b != nil {
		c.b.process()
	}
	if consumed > 0 {
		copy(c.rbuf, c.rbuf[consumed:c.rlen])
		c.rlen -= consumed
	}
	// A request larger than the buffer can never complete: grow toward
	// the codec's bound. Decode already refused anything beyond it.
	if c.rlen == len(c.rbuf) && len(c.rbuf) < s.traits.MaxRequest {
		grown := make([]byte, min(2*len(c.rbuf), s.traits.MaxRequest))
		copy(grown, c.rbuf[:c.rlen])
		c.rbuf = grown
	}
	return open
}

// dispatch routes one decoded request to its shard queue, shedding it
// when the queue is full.
func (s *Server) dispatch(c *conn, r *Request) {
	sh := s.shards[c.shard] // mget, len, stats
	switch r.Op {
	case wireproto.OpGet, wireproto.OpSet, wireproto.OpDel, wireproto.OpSetTTL, wireproto.OpTouch:
		sh = s.shards[shardOfKey(r.Key, len(s.shards))]
	}
	t := s.newTask(c, r)
	select {
	case sh.q <- t:
	default:
		s.putMG(t.mg)
		s.met.QueueSheds.Add(1)
		c.wmu.Lock()
		c.wbuf = s.cfg.Codec.Append(c.wbuf, r.ID, r.Flags, &shed)
		c.wmu.Unlock()
		c.flush()
	}
}

// send appends p to the write buffer and flushes it.
func (c *conn) send(p []byte) {
	c.wmu.Lock()
	c.wbuf = append(c.wbuf, p...)
	c.wmu.Unlock()
	c.flush()
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
