package core

import (
	"sync/atomic"
	"time"

	"ffwd/internal/obs"
	"ffwd/internal/spin"
)

// Client is one delegation channel to a Server: a request slot plus a
// response-slot view. A Client must be used by at most one goroutine at a
// time. All requests must be issued while the server is running (parked
// counts as running; the first Issue wakes it); stop issuing before
// calling Server.Stop. Close returns the slot for reuse.
type Client struct {
	s      *Server
	slot   int
	req    []uint64 // this client's request words (header + args)
	respT  *uint64  // group toggle word
	respV  *uint64  // this client's return-value word
	bit    uint64   // our bit in the toggle word
	toggle uint64   // current request toggle (0 or 1)
	// tr caches the server's lifecycle-event sink (nil outside traced
	// runs), saving the hot path the s indirection per event site. The
	// op's lifecycle events buffer in evBuf and reach the slot's ring in
	// one combined append at completion, one cursor bump per op instead
	// of one per event.
	tr obs.Tracer
	// evBuf/evn hold the in-flight op's buffered events; flushed on
	// completion, on abandoning a bounded wait, and on Close.
	evBuf [4]obs.Event
	evn   int
	// seq is the slot's monotonic request sequence number: incremented
	// and stamped into the request line on every issue, it lets the
	// server's last-applied ledger fence duplicate deliveries after a
	// crash restart. A recycled slot's new owner adopts the previous
	// owner's count, keeping the sequence monotonic per slot.
	seq uint64
	// rng is the client-local xorshift state behind DelegateRetry's
	// backoff jitter (lazily seeded from the slot index).
	rng uint64
	// pending tracks an Issue without a matching Wait, to catch misuse.
	pending bool
	// abandoned marks a pending request whose bounded wait gave up
	// (ErrTimeout/ErrServerStopped). The request is still outstanding on
	// the channel; the next wait or issue on this client first drains
	// its late response, keeping the toggle protocol coherent.
	abandoned bool
	// w is the wait ladder, reset by every wait and kept so its sleep
	// timer is made once per client, not once per sleep.
	w spin.Waiter
}

// Slot returns the client's slot index on its server.
func (c *Client) Slot() int { return c.slot }

// traceEvent buffers one client lifecycle event in evBuf for a combined
// ring append. Callers must have checked c.tr != nil.
//
// A buffered wait-start shares the preceding event's timestamp instead of
// reading the clock: in the delegate fast paths it directly follows the
// issue it belongs to, and the phase attribution reads the issue→execute
// and respond→complete gaps, never the issue→wait-start one.
func (c *Client) traceEvent(k obs.Kind, arg uint64) {
	if c.evn == len(c.evBuf) {
		c.flushTrace() // re-waited op overflowing the buffer; drain first
	}
	var ts int64
	if k == obs.KindClientWaitStart && c.evn > 0 {
		ts = c.evBuf[c.evn-1].TS
	} else {
		ts = c.tr.Now()
	}
	c.evBuf[c.evn] = obs.Event{TS: ts, Kind: k, Slot: int32(c.slot), Arg: arg}
	c.evn++
}

// flushTrace appends the buffered lifecycle events to the slot's ring in
// one cursor bump. A no-op when nothing is buffered (including every
// untraced client, which never buffers).
func (c *Client) flushTrace() {
	if c.evn > 0 {
		c.tr.EventBatch(c.evBuf[:c.evn])
		c.evn = 0
	}
}

// Close releases the client's slot back to its server: the occupancy bit
// is cleared (so sweeps stop touching the request line) and the slot
// becomes allocatable by a future NewClient, which adopts its toggle
// state. Close panics if a request is in flight — except an abandoned one
// (a bounded wait timed out): if its late response still has not arrived,
// the slot is retired rather than recycled, because a future owner would
// otherwise receive a response it never issued. Retired slots are counted
// in Stats.AbandonedSlots and never handed out again. A closed client
// must not be used again; Close is a no-op on an already-closed client.
func (c *Client) Close() {
	if c.s == nil {
		return
	}
	if c.pending {
		if !c.abandoned {
			panic("core: Close with a request in flight")
		}
		if _, ok := c.TryWait(); !ok {
			// The late response has not arrived — but a supervised
			// restart's sweep may be flushing it right now (the crash
			// that stranded this request is exactly when a Supervisor
			// runs RestartIfCrashed). Clear the occupancy bit first,
			// then poll once more: if the response landed in that
			// window, the toggle channel is coherent after all and the
			// slot can be recycled instead of permanently retired.
			s := c.s
			s.andOcc(c.slot/GroupSize, ^c.bit)
			if _, ok := c.TryWait(); !ok {
				// Still outstanding. A sweep that captured its
				// occupancy mask before our clear could yet flush a
				// response here, so handing the slot to a new owner
				// would let it receive a response it never issued:
				// retire the slot for good.
				c.flushTrace() // retired slot: land any buffered events
				c.s = nil
				s.nAbandoned.Add(1)
				return
			}
			c.s = nil
			s.freeSlot(c.slot)
			return
		}
	}
	c.flushTrace()
	s := c.s
	c.s = nil
	s.andOcc(c.slot/GroupSize, ^c.bit)
	s.freeSlot(c.slot)
}

// Issue sends an asynchronous request to execute fid with the given
// arguments. Exactly one Wait must follow before the next Issue. Issue and
// Wait are the FFWDx2 building blocks: a goroutine holding two Clients can
// keep two requests in flight, hiding round-trip latency exactly as the
// paper's two yielding user threads per hardware thread do.
func (c *Client) Issue(fid FuncID, args ...uint64) {
	if c.pending {
		panic("core: Issue called with a request already in flight")
	}
	if len(args) > MaxArgs {
		panic("core: too many arguments")
	}
	for i, a := range args {
		c.req[1+i] = a
	}
	c.issueHdr(fid, len(args))
}

// TryWait polls for the response to the in-flight request. It reports
// whether the response arrived; on true, ret is the delegated function's
// return value.
func (c *Client) TryWait() (ret uint64, ok bool) {
	if !c.pending {
		panic("core: TryWait without an in-flight request")
	}
	if !c.ready() {
		return 0, false
	}
	c.pending = false
	c.abandoned = false
	if c.tr != nil {
		// Completion closes the op's lifecycle: record it and land the
		// op's buffered events (issue, wait-start, complete) in one
		// combined ring append.
		c.traceEvent(obs.KindClientComplete, c.seq)
		c.flushTrace()
	}
	return *c.respV, true
}

// ready reports whether the in-flight request's response has arrived.
func (c *Client) ready() bool {
	return (atomic.LoadUint64(c.respT)&c.bit != 0) == (c.toggle == 1)
}

// Wait blocks until the in-flight request's response arrives and returns
// the delegated function's return value. The wait climbs spin.Waiter's
// spin → yield → sleep ladder, so a response that is many sweeps away (or
// a server descheduled under load) does not cost a burning core.
func (c *Client) Wait() uint64 {
	if c.tr != nil {
		c.traceEvent(obs.KindClientWaitStart, c.seq)
	}
	c.w.Reset()
	for {
		if ret, ok := c.TryWait(); ok {
			return ret
		}
		c.waitStep(time.Time{})
	}
}

// waitStep takes one step of the wait ladder, bounded by deadline unless
// it is zero, and reports whether the wait may continue. On the sleep
// rung the client counts itself among the server's sleepers and sleeps
// on its nudge channel. The count is raised before the response is
// checked once more; the server flushes before it reads the count, so
// either the check sees the response or the server sends this sleep a
// token.
func (c *Client) waitStep(deadline time.Time) bool {
	if !c.w.Sleeping() {
		return c.w.WaitOn(nil, deadline)
	}
	c.s.sleepers.Add(1)
	defer c.s.sleepers.Add(-1)
	return c.ready() || c.w.WaitOn(c.s.nudge, deadline)
}

// waitUntil blocks until the in-flight response arrives, the deadline
// passes, or the server goroutine is found dead. A zero deadline means no
// deadline (the wait is then bounded only by server liveness). On error
// the request is left outstanding and marked abandoned: its late response
// is drained by the next wait or issue on this client.
func (c *Client) waitUntil(deadline time.Time) (uint64, error) {
	if !c.pending {
		panic("core: wait without an in-flight request")
	}
	if c.tr != nil {
		c.traceEvent(obs.KindClientWaitStart, c.seq)
	}
	c.w.Reset()
	for {
		if ret, ok := c.TryWait(); ok {
			return ret, nil
		}
		if !c.s.alive.Load() {
			// The dying goroutine's final drain sweep may have
			// flushed the response between the poll above and the
			// liveness check; poll once more before giving up.
			if ret, ok := c.TryWait(); ok {
				return ret, nil
			}
			c.abandoned = true
			// The op's completion may never come; land its buffered
			// issue/wait events now so the capture still shows the
			// abandoned request.
			c.flushTrace()
			return 0, ErrServerStopped
		}
		if !c.waitStep(deadline) {
			c.abandoned = true
			c.flushTrace()
			return 0, ErrTimeout
		}
	}
}

// WaitFor is Wait with a deadline: it blocks up to timeout for the
// in-flight response. It returns ErrTimeout when the deadline expires and
// ErrServerStopped when the server goroutine is not running (so the
// response cannot arrive — e.g. it crashed without draining). In both
// cases the request remains outstanding and the channel protocol stays
// coherent: the next wait or issue on this client first drains the late
// response (which a Supervisor-restarted server will still serve).
func (c *Client) WaitFor(timeout time.Duration) (uint64, error) {
	return c.waitUntil(time.Now().Add(timeout))
}

// Delegate executes fid(args...) on the server and returns its result:
// the paper's FFWD_DELEGATE, a synchronous request/response round trip.
func (c *Client) Delegate(fid FuncID, args ...uint64) uint64 {
	c.Issue(fid, args...)
	return c.Wait()
}

// DelegateTimeout is Delegate with a deadline covering the whole round
// trip (including draining a previously timed-out request's late
// response). It returns ErrTimeout/ErrServerStopped instead of spinning
// forever, and — like DelegateErr — reports a delegated-function panic or
// unknown function id as a *PanicRecord error rather than the bare
// all-ones sentinel.
func (c *Client) DelegateTimeout(timeout time.Duration, fid FuncID, args ...uint64) (uint64, error) {
	deadline := time.Now().Add(timeout)
	if c.pending {
		if !c.abandoned {
			panic("core: Delegate with a request already in flight")
		}
		if _, err := c.waitUntil(deadline); err != nil {
			return 0, err // stale response still outstanding
		}
	}
	c.s.slotPanic[c.slot].Store(nil)
	c.Issue(fid, args...)
	ret, err := c.waitUntil(deadline)
	if err != nil {
		return 0, err
	}
	if ret == ^uint64(0) {
		if rec := c.s.slotPanic[c.slot].Load(); rec != nil {
			return ret, rec
		}
	}
	return ret, nil
}

// DelegateErr is Delegate with the panic sentinel resolved into an error:
// if the delegated function panicked (or fid is unregistered), the
// captured *PanicRecord is returned instead of the ambiguous ^uint64(0)
// — a function that legitimately returns all-ones is reported with a nil
// error. The wait itself is unbounded, like Delegate; use DelegateTimeout
// when the server may fail.
func (c *Client) DelegateErr(fid FuncID, args ...uint64) (uint64, error) {
	c.s.slotPanic[c.slot].Store(nil)
	ret := c.Delegate(fid, args...)
	if ret == ^uint64(0) {
		if rec := c.s.slotPanic[c.slot].Load(); rec != nil {
			return ret, rec
		}
	}
	return ret, nil
}

// issueHdr publishes a fully prepared request header and wakes the server
// if it parked. The parked check is one atomic load of a line that is
// read-shared among every client while the server runs hot; the CAS+send
// in wakeServer happens only on the park slow path.
func (c *Client) issueHdr(fid FuncID, argc int) {
	if c.pending {
		if !c.abandoned {
			panic("core: Issue called with a request already in flight")
		}
		c.drainAbandoned()
	}
	c.toggle ^= 1
	// Stamp the slot's next sequence number; the releasing header store
	// below publishes it together with the argument words. The server's
	// ledger compares it against the slot's last applied sequence to
	// fence duplicate deliveries after a crash restart.
	c.seq++
	c.req[reqSeqWord] = c.seq
	if c.tr != nil {
		c.traceEvent(obs.KindClientIssue, c.seq)
	}
	hdr := uint64(fid)<<hdrFuncShift |
		uint64(argc)<<hdrArgcShift |
		hdrSeededBit | c.toggle
	// The atomic header store publishes the argument words; it is
	// sequentially consistent with the server's parked-flag store, so
	// either the server's post-park sweep sees this header or the load
	// below sees the flag — never neither.
	atomic.StoreUint64(&c.req[0], hdr)
	c.pending = true
	if c.s.parked.Load() {
		c.s.wakeServer()
	}
}

// drainAbandoned completes a timed-out request and returns its late
// response, restoring the channel protocol before the next issue. Issuing
// over an undrained request would fold the toggle back onto itself and
// desynchronize the channel, so if the server is gone and the response
// can never arrive, drainAbandoned panics rather than corrupt the slot —
// bounded callers (DelegateTimeout, FlushTimeout) return an error before
// reaching this point.
func (c *Client) drainAbandoned() uint64 {
	c.w.Reset()
	for {
		if ret, ok := c.TryWait(); ok {
			return ret
		}
		if !c.s.alive.Load() {
			if ret, ok := c.TryWait(); ok {
				return ret
			}
			panic("core: Issue over an undrainable abandoned request (server not running); use DelegateTimeout")
		}
		c.waitStep(time.Time{})
	}
}

// Delegate0 is the form of Delegate with no arguments — the hot path for
// fixed operations (Pop, Len, counters). Neither it nor the variadic
// Delegate allocates: the argument slice does not escape, so it stays on
// the caller's stack (TestHotPathsAllocationFree pins both).
func (c *Client) Delegate0(fid FuncID) uint64 {
	c.issueHdr(fid, 0)
	return c.Wait()
}

// Delegate1 is the one-argument form of Delegate.
func (c *Client) Delegate1(fid FuncID, a0 uint64) uint64 {
	c.req[1] = a0
	c.issueHdr(fid, 1)
	return c.Wait()
}

// Delegate2 is the two-argument form of Delegate.
func (c *Client) Delegate2(fid FuncID, a0, a1 uint64) uint64 {
	c.req[1] = a0
	c.req[2] = a1
	c.issueHdr(fid, 2)
	return c.Wait()
}

// Delegate3 is the three-argument form of Delegate.
func (c *Client) Delegate3(fid FuncID, a0, a1, a2 uint64) uint64 {
	c.req[1] = a0
	c.req[2] = a1
	c.req[3] = a2
	c.issueHdr(fid, 3)
	return c.Wait()
}

// RetryPolicy parameterizes the automatic-retry delegates: up to
// MaxAttempts bounded waits separated by capped exponential backoff with
// jitter. The zero value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of bounded waits (the first
	// attempt included). Default 8.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it. Default 200µs.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Default 50ms.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	return p
}

// backoff returns the jittered sleep before retry attempt (1-based: the
// wait after the attempt'th failed wait): half the capped exponential
// step plus a uniformly random other half, decorrelating clients that
// timed out together.
func (p RetryPolicy) backoff(attempt int, rng *uint64) time.Duration {
	d := p.BaseDelay << uint(attempt-1)
	if d <= 0 || d > p.MaxDelay { // <= 0 catches shift overflow
		d = p.MaxDelay
	}
	// xorshift64: tiny, seedable, good enough for jitter.
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(x%uint64(half)))
}

// retrySleep takes one policy backoff, counting it in Stats.RetryWaits.
func (c *Client) retrySleep(p RetryPolicy, attempt int) {
	if c.rng == 0 {
		c.rng = (uint64(c.slot)+1)*0x9e3779b97f4a7c15 + 1
	}
	c.s.nRetryWaits.Add(1)
	time.Sleep(p.backoff(attempt, &c.rng))
}

// DelegateRetry is the exactly-once automatic-retry round trip: it issues
// fid(args...) once and then waits up to p.MaxAttempts times (each wait
// bounded by perTry), sleeping a capped, jittered exponential backoff
// between attempts. The request is never re-issued — the request line
// survives server crashes, a restarted server re-serves it, and the
// last-applied ledger fences duplicate deliveries — so a successful
// return means the operation executed exactly once, even for
// non-idempotent functions, no matter how many timeouts and restarts the
// retries rode out. A previously abandoned request on this client is
// first drained (its stale result discarded) under the same policy.
//
// On attempt exhaustion the last error (ErrTimeout or ErrServerStopped)
// is returned and the request remains outstanding and abandoned, exactly
// as after DelegateTimeout: its fate is undecided until a later wait
// drains it. Delegated-function panics and unknown function ids surface
// as *PanicRecord errors, as with DelegateErr.
func (c *Client) DelegateRetry(p RetryPolicy, perTry time.Duration, fid FuncID, args ...uint64) (uint64, error) {
	p = p.withDefaults()
	// stale marks an abandoned predecessor whose late response must be
	// drained and discarded before fid can be issued.
	stale := c.pending
	if stale && !c.abandoned {
		panic("core: DelegateRetry with a request already in flight")
	}
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retrySleep(p, attempt)
		}
		if stale {
			if _, err := c.waitUntil(time.Now().Add(perTry)); err != nil {
				lastErr = err
				continue
			}
			stale = false
		}
		if !c.pending {
			// Not yet issued (or the stale drain just completed):
			// issue exactly once. Later attempts re-wait this same
			// request rather than re-issuing it.
			c.s.slotPanic[c.slot].Store(nil)
			c.Issue(fid, args...)
		}
		ret, err := c.waitUntil(time.Now().Add(perTry))
		if err != nil {
			lastErr = err
			continue
		}
		if ret == ^uint64(0) {
			if rec := c.s.slotPanic[c.slot].Load(); rec != nil {
				return ret, rec
			}
		}
		return ret, nil
	}
	return 0, lastErr
}
