package core

import (
	"slices"
	"time"
)

// AsyncGroup generalizes the paper's FFWDx2 over-subscription: it manages
// k client channels for a single goroutine, keeping up to k requests in
// flight to hide the request/response round-trip latency. FFWDx2 is
// AsyncGroup with k = 2 — the paper's "two user threads per hardware
// thread that yield after sending".
//
// Ordering contract. A paper client has one request outstanding, so the
// paper never says in what order one client's requests run; a window has
// k, so this type does. In the terms of futures: the window's results
// resolve FIFO, and so do their effects. As a safety property: if request
// a was submitted to a window before request b, the server executes a
// before b (b observes every effect of a), and a's result is delivered
// before b's — at every GOMAXPROCS, across window wrap-around, and across
// a server crash and restart (a re-delivered request is answered from the
// ledger, never run a second time or out of turn). Nothing orders requests
// of different windows or plain clients beyond each being atomic.
//
// Submit returns the result of the oldest in-flight request once the
// window is full, so a caller that needs results can treat it as a
// shallow pipeline. The Submit0–Submit3 forms mirror Delegate0–3.
type AsyncGroup struct {
	clients []*Client
	// head is the index of the oldest in-flight request; size is the
	// number in flight.
	head, size int
}

// NewAsyncGroup allocates k client slots on s. k is clamped to at least 1.
// On slot exhaustion no slots are consumed.
func NewAsyncGroup(s *Server, k int) (*AsyncGroup, error) {
	if k < 1 {
		k = 1
	}
	g := &AsyncGroup{clients: make([]*Client, k)}
	for i := range g.clients {
		c, err := s.NewClient()
		if err != nil {
			for _, prev := range g.clients[:i] {
				prev.Close()
			}
			return nil, err
		}
		g.clients[i] = c
	}
	if k > 1 {
		// Register the window (see the window type). Issuing in slot
		// order lets one sweep, which visits slots in index order, serve
		// a whole window; recycled slots arrive in no particular order.
		slices.SortFunc(g.clients, func(a, b *Client) int { return a.slot - b.slot })
		w := &window{slots: make([]int, k)}
		for i, c := range g.clients {
			w.slots[i] = c.slot
			s.win[c.slot] = w
		}
	}
	return g, nil
}

// Window returns the group's pipeline depth k.
func (g *AsyncGroup) Window() int { return len(g.clients) }

// InFlight returns the number of outstanding requests.
func (g *AsyncGroup) InFlight() int { return g.size }

// Close releases every client slot of the group. All in-flight requests
// must have been Flushed first — except abandoned ones (a FlushTimeout
// gave up on them), whose slots each Client.Close retires rather than
// recycles if the late response still has not arrived.
func (g *AsyncGroup) Close() {
	for i := 0; i < g.size; i++ {
		if !g.clients[(g.head+i)%len(g.clients)].abandoned {
			panic("core: AsyncGroup.Close with requests in flight")
		}
	}
	g.size = 0
	for _, c := range g.clients {
		c.Close()
	}
}

// next returns the client channel the following request should issue on,
// first completing the oldest in-flight request when the window is full.
// If a FlushTimeout abandoned that request, next has Client.issueHdr's
// contract for it: drain it while the server lives, panic once it cannot
// arrive.
func (g *AsyncGroup) next() (c *Client, oldest uint64, completed bool) {
	if g.size == len(g.clients) {
		if head := g.clients[g.head]; head.abandoned {
			oldest = head.drainAbandoned()
		} else {
			oldest = head.Wait()
		}
		g.head = (g.head + 1) % len(g.clients)
		g.size--
		completed = true
	}
	c = g.clients[(g.head+g.size)%len(g.clients)]
	return c, oldest, completed
}

// Submit issues fid(args...) asynchronously. If the pipeline was full it
// first waits for the oldest request and returns (its result, true);
// otherwise it returns (0, false) without blocking.
func (g *AsyncGroup) Submit(fid FuncID, args ...uint64) (oldest uint64, completed bool) {
	c, oldest, completed := g.next()
	c.Issue(fid, args...)
	g.size++
	return oldest, completed
}

// Submit0 is the zero-argument form of Submit.
func (g *AsyncGroup) Submit0(fid FuncID) (oldest uint64, completed bool) {
	c, oldest, completed := g.next()
	c.issueHdr(fid, 0)
	g.size++
	return oldest, completed
}

// Submit1 is the one-argument form of Submit.
func (g *AsyncGroup) Submit1(fid FuncID, a0 uint64) (oldest uint64, completed bool) {
	c, oldest, completed := g.next()
	c.req[1] = a0
	c.issueHdr(fid, 1)
	g.size++
	return oldest, completed
}

// Submit2 is the two-argument form of Submit.
func (g *AsyncGroup) Submit2(fid FuncID, a0, a1 uint64) (oldest uint64, completed bool) {
	c, oldest, completed := g.next()
	c.req[1] = a0
	c.req[2] = a1
	c.issueHdr(fid, 2)
	g.size++
	return oldest, completed
}

// Submit3 is the three-argument form of Submit.
func (g *AsyncGroup) Submit3(fid FuncID, a0, a1, a2 uint64) (oldest uint64, completed bool) {
	c, oldest, completed := g.next()
	c.req[1] = a0
	c.req[2] = a1
	c.req[3] = a2
	c.issueHdr(fid, 3)
	g.size++
	return oldest, completed
}

// Flush waits for every in-flight request, invoking each result on fn (in
// issue order) if fn is non-nil.
func (g *AsyncGroup) Flush(fn func(uint64)) {
	for g.size > 0 {
		r := g.clients[g.head].Wait()
		g.head = (g.head + 1) % len(g.clients)
		g.size--
		if fn != nil {
			fn(r)
		}
	}
}

// FlushTimeout is Flush with a deadline covering the whole drain. On
// ErrTimeout/ErrServerStopped the request that failed and everything
// younger stay in flight, marked abandoned: a later FlushTimeout (for
// example after a Supervisor restart) can still collect them in issue
// order, and Close retires the slots of any that never complete.
func (g *AsyncGroup) FlushTimeout(timeout time.Duration, fn func(uint64)) error {
	deadline := time.Now().Add(timeout)
	for g.size > 0 {
		ret, err := g.clients[g.head].waitUntil(deadline)
		if err != nil {
			for i := 0; i < g.size; i++ {
				g.clients[(g.head+i)%len(g.clients)].abandoned = true
			}
			return err
		}
		g.head = (g.head + 1) % len(g.clients)
		g.size--
		if fn != nil {
			fn(ret)
		}
	}
	return nil
}
