// Package frontend is the serving path of ffwdserve, one connection
// lifecycle for every wire protocol: a reader goroutine per connection
// decodes what one Read delivered through the Server's Codec, borrows an
// executor from the pool of Config.Execs, runs the requests through the
// delegation pool as one pipelined batch, and writes the replies back in
// request order with one write:
//
//	conn ──► reader ─ decode ─ borrow Exec ─ batch ─ one write ──► conn
//
// The layering mirrors the thesis of the ffwd paper applied to a
// network server: the expensive part of a request is not the hash-table
// operation (a delegated op costs ~hundreds of nanoseconds) but the
// per-request overheads around it — syscalls, goroutine wakeups,
// allocation, lock handoffs. The frontend amortizes all four, and adds no
// combiner of its own in front of the delegation server's: every
// connection's batch meets the others' in the server's sweep.
//
// Replies leave in request order for every codec. Binary replies still
// carry their request's ID, so a client may match them either way.
//
// Ownership rules, which keep the hot path allocation- and lock-free:
// a connection's buffers and batch are touched only by its reader, and
// its lifetime ends in one place, the reader's deferred close. A flush
// that fails, or Close, marks the connection dead and closes the socket
// only to unblock that reader.
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

	// Execs is the executor pool connections borrow from, one executor
	// per batch. Required: at least one.
	Execs []Exec

	// ShedTimeout bounds how long a connection's batch waits for a pooled
	// executor before every request in it is answered busy.
	// 0 = wait forever.
	ShedTimeout time.Duration

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

// Server accepts connections and runs their readers.
type Server struct {
	cfg    Config
	traits Traits
	met    Metrics
	pool   chan Exec // the executors, lent a batch at a time

	stopping  atomic.Bool
	closeOnce sync.Once
	mu        sync.Mutex // guards lns, conns and the stopping transition
	lns       []net.Listener
	conns     map[*conn]struct{}

	readerWG sync.WaitGroup
}

// conn is one client connection; everything but dead is its reader's.
type conn struct {
	srv *Server
	nc  net.Conn

	rbuf []byte
	rlen int
	req  Request
	batch
	wbuf []byte

	dead atomic.Bool
}

const initialRbuf = 4096

var errNoExecs = errors.New("frontend: Config.Execs is empty")

// NewServer fills the executor pool. The caller feeds it listeners via
// Serve.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Execs) == 0 {
		return nil, errNoExecs
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Codec == nil {
		cfg.Codec = Binary{}
	}
	s := &Server{cfg: cfg, traits: cfg.Codec.Traits(), pool: make(chan Exec, len(cfg.Execs)), conns: make(map[*conn]struct{})}
	for _, e := range cfg.Execs {
		s.pool <- e
	}
	return s, nil
}

// Metrics exposes the server's counters; (*Server).StatRows declares
// them for the stats sinks.
func (s *Server) Metrics() *Metrics { return &s.met }

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

// Close stops listeners and readers, closing every connection; it
// returns after every reader goroutine has exited. Idempotent.
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
	})
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		srv:  s,
		nc:   nc,
		rbuf: make([]byte, initialRbuf),
		wbuf: make([]byte, 0, initialRbuf),
	}
	s.met.Active.Add(1)
	return c
}

// decodeConn decodes every complete request currently in c's read
// buffer into the connection's batch, running the batch each time it
// fills and once at the end, then compacts the buffer. It returns false
// when the connection must close (quit, or framing lost); everything
// owed has already been flushed.
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
		switch {
		case v == Run:
			c.add(r)
		case len(r.Reply) > 0:
			// Nothing overtakes: the reply waits its turn in the batch.
			c.tasks, c.pre = append(c.tasks, task{op: wireproto.OpNop, val: uint64(len(r.Reply))}), append(c.pre, r.Reply...)
		}
		if len(c.tasks) == s.cfg.MaxBatch {
			c.process()
		}
	}
	c.process()
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

// flush writes the buffered replies in one syscall. A write error kills
// the connection.
func (c *conn) flush() {
	if len(c.wbuf) > 0 && !c.dead.Load() {
		if c.srv.cfg.WriteTimeout > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		}
		n, err := c.nc.Write(c.wbuf)
		c.srv.met.BytesOut.Add(uint64(n))
		c.srv.met.Flushes.Add(1)
		if err != nil {
			c.kill()
		}
	}
	c.wbuf = c.wbuf[:0]
}

// kill marks the connection dead and closes the socket to unblock its
// reader, which does the accounting and the final close on its way out
// (serveConn). Safe from any goroutine.
func (c *conn) kill() {
	if !c.dead.Swap(true) {
		c.nc.Close()
	}
}
