// Package rcl implements a Remote Core Locking-style delegation baseline
// [Lozi et al., USENIX ATC '12] — the state of the art the ffwd paper
// compares against.
//
// RCL was designed for re-engineering legacy lock-based code, and its
// protocol carries the costs the ffwd paper identifies:
//
//   - requests pass a *context* pointer: the server first reads the request
//     slot, then dereferences the context — a dependent cache miss;
//   - the server still *acquires the lock* associated with the critical
//     section before executing it, to stay correct if other code paths
//     take the same lock directly;
//   - each client has a private request/response slot (no shared response
//     lines, no batching), so every operation costs the paper's ≈3 cache
//     misses versus ffwd's ≈0.72.
//
// The implementation reproduces that structure faithfully in Go: per-client
// slots holding a pointer to a request record {lock, function, context},
// a server loop that dereferences the context and acquires the lock, and a
// per-slot response published with an atomic pointer swap.
package rcl

import (
	"errors"
	"runtime"
	"sync/atomic"

	"ffwd/internal/locks"
	"ffwd/internal/obs"
	"ffwd/internal/spin"
)

// CriticalSection is a function executed by the RCL server under the
// request's lock. The context is whatever the client packed — in re-
// engineered legacy code, the spilled local variables of the original
// critical section.
type CriticalSection func(ctx any) uint64

// request is the per-operation record the client publishes; the server
// must chase this pointer (RCL's dependent-miss structure).
type request struct {
	lock *Lock
	fn   CriticalSection
	ctx  any
	// slot and seq identify the operation for lifecycle tracing; they ride
	// in the request record because RCL's protocol has no shared-memory
	// sequence word the server could read instead.
	slot int32
	seq  uint64
}

// slot is one client's communication area.
type slot struct {
	req  atomic.Pointer[request]
	resp atomic.Pointer[response]
	_    [96]byte
}

type response struct {
	ret uint64
}

// Lock is a lock managed by an RCL server. Delegated critical sections run
// with it held, so code that still takes the lock directly (un-ported call
// sites) remains mutually excluded — RCL's compatibility guarantee.
type Lock struct {
	mu locks.TAS
}

// Server is an RCL delegation server thread.
type Server struct {
	slots    []slot
	nextSlot atomic.Int32
	running  atomic.Bool
	stopping atomic.Bool
	done     chan struct{}
	served   atomic.Uint64
	// trace receives delegation lifecycle events (see internal/obs) under
	// the same vocabulary as the ffwd core, so one analysis pipeline
	// compares both designs. nil — the default — disables tracing for one
	// branch per event site. Events are buffered locally and appended to
	// the sink with one cursor publication per run instead of one per
	// event — the same discipline as the ffwd core's write-combined sweep.
	trace obs.Tracer
}

// NewServer returns a stopped RCL server with capacity for maxClients.
func NewServer(maxClients int) *Server {
	if maxClients < 1 {
		maxClients = 1
	}
	return &Server{slots: make([]slot, maxClients), done: make(chan struct{})}
}

// NewLock returns a lock managed by this server.
func (s *Server) NewLock() *Lock { return &Lock{} }

// SetTrace installs a lifecycle-event sink. Call it before Start; the
// server loop reads the field without synchronization.
func (s *Server) SetTrace(tr obs.Tracer) {
	s.trace = tr
}

// ErrNoSlots is returned when every client slot is taken.
var ErrNoSlots = errors.New("rcl: all client slots in use")

// Client is one goroutine's channel to the server.
type Client struct {
	s    *Server
	slot *slot
	idx  int32
	// seq numbers this client's operations for lifecycle tracing,
	// mirroring the ffwd core's per-slot sequence word.
	seq uint64
	// evBuf holds one operation's lifecycle events; it lives on the
	// (heap-allocated) Client so handing a slice of it to EventBatch does
	// not allocate per operation.
	evBuf [3]obs.Event
}

// NewClient allocates a client slot.
func (s *Server) NewClient() (*Client, error) {
	i := int(s.nextSlot.Add(1)) - 1
	if i >= len(s.slots) {
		return nil, ErrNoSlots
	}
	return &Client{s: s, slot: &s.slots[i], idx: int32(i)}, nil
}

// MustNewClient is NewClient but panics when slots are exhausted.
func (s *Server) MustNewClient() *Client {
	c, err := s.NewClient()
	if err != nil {
		panic(err)
	}
	return c
}

// Start launches the server goroutine.
func (s *Server) Start() error {
	if !s.running.CompareAndSwap(false, true) {
		return errors.New("rcl: server already running")
	}
	s.stopping.Store(false)
	s.done = make(chan struct{})
	go s.run()
	return nil
}

// Stop halts the server after a final sweep and waits for it to exit.
func (s *Server) Stop() {
	if !s.running.Load() {
		return
	}
	s.stopping.Store(true)
	<-s.done
	s.running.Store(false)
}

// Served returns the number of critical sections executed.
func (s *Server) Served() uint64 { return s.served.Load() }

func (s *Server) run() {
	defer close(s.done)
	tr := s.trace
	// evBuf collects this goroutine's execute/respond events across a
	// slot-scan pass; one EventBatch per pass (or per 16 operations)
	// replaces two ring publications per operation.
	var evBuf [32]obs.Event
	evn := 0
	for {
		stop := s.stopping.Load()
		any := false
		for i := range s.slots {
			sl := &s.slots[i]
			req := sl.req.Load()
			if req == nil {
				continue
			}
			any = true
			if tr != nil {
				if evn+2 > len(evBuf) {
					tr.EventBatch(evBuf[:evn])
					evn = 0
				}
				evBuf[evn] = obs.Event{TS: tr.Now(), Kind: obs.KindExecute, Slot: req.slot, Arg: req.seq}
				evn++
			}
			// RCL protocol: acquire the request's lock, execute,
			// release. The context dereference inside fn(ctx) is
			// the dependent miss.
			req.lock.mu.Lock()
			ret := req.fn(req.ctx)
			req.lock.mu.Unlock()
			sl.req.Store(nil)
			sl.resp.Store(&response{ret: ret})
			s.served.Add(1)
			if tr != nil {
				evBuf[evn] = obs.Event{TS: tr.Now(), Kind: obs.KindRespond, Slot: req.slot, Arg: req.seq}
				evn++
			}
		}
		if evn > 0 {
			tr.EventBatch(evBuf[:evn])
			evn = 0
		}
		if stop {
			return
		}
		if !any {
			runtime.Gosched()
		}
	}
}

// Execute delegates fn(ctx) to the server, which runs it holding l, and
// returns fn's result. It must not be called concurrently on one Client.
//
// Traced, the operation's three client events land on the slot ring in
// one cursor publication at completion. The wait-start stamp shares the
// issue stamp — the gap between them is two instructions and attribution
// never reads it — so the path pays two clock reads per operation, not
// three.
func (c *Client) Execute(l *Lock, fn CriticalSection, ctx any) uint64 {
	tr := c.s.trace
	c.seq++
	c.slot.resp.Store(nil)
	if tr != nil {
		ts := tr.Now()
		c.evBuf[0] = obs.Event{TS: ts, Kind: obs.KindClientIssue, Slot: c.idx, Arg: c.seq}
		c.evBuf[1] = obs.Event{TS: ts, Kind: obs.KindClientWaitStart, Slot: c.idx, Arg: c.seq}
	}
	c.slot.req.Store(&request{lock: l, fn: fn, ctx: ctx, slot: c.idx, seq: c.seq})
	var w spin.Waiter
	for {
		if r := c.slot.resp.Load(); r != nil {
			if tr != nil {
				c.evBuf[2] = obs.Event{TS: tr.Now(), Kind: obs.KindClientComplete, Slot: c.idx, Arg: c.seq}
				tr.EventBatch(c.evBuf[:])
			}
			return r.ret
		}
		w.Wait()
	}
}

// LockDirect acquires l without delegation, as an un-ported code path
// would; mutual exclusion against delegated sections is preserved because
// the server holds l while executing them.
func (l *Lock) LockDirect() { l.mu.Lock() }

// UnlockDirect releases a LockDirect acquisition.
func (l *Lock) UnlockDirect() { l.mu.Unlock() }
