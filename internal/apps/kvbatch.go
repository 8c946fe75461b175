package apps

import "ffwd/internal/core"

// KVBatchClient pipelines a mixed stream of single-key operations
// (get/set/setttl/touch) through one core.AsyncGroup: up to window
// requests overlap inside the delegation server's sweeps, so a stream of
// n operations costs roughly n/window round trips instead of n. It is
// the library's pipelined handle for a caller that issues ops one at a
// time; a caller that holds a whole batch at once can instead register
// one function that applies it on the server and pay a single round trip
// (ffwdserve's executors do).
//
// Completions are delivered strictly in submit order to the OnDone
// callback as (seq, ret), where seq counts submissions since the last
// Flush and ret is the delegated function's raw return word (the caller
// maps sentinel values per operation kind). Flush drains everything
// outstanding and resets seq to zero. The client is not synchronized:
// one goroutine owns it, like every other delegation handle.
type KVBatchClient struct {
	d    *DelegatedKV
	g    *core.AsyncGroup
	done func(seq int, ret uint64)

	// submitted and completed count operations since the last Flush;
	// their difference is the in-flight window and completed is the seq
	// of the next completion. flushFn is prebuilt so Flush allocates
	// nothing.
	submitted int
	completed int
	flushFn   func(uint64)
}

// NewBatchClient allocates window delegation channels for pipelined
// mixed-op batches. window is clamped to at least 1.
func (d *DelegatedKV) NewBatchClient(window int) (*KVBatchClient, error) {
	g, err := core.NewAsyncGroup(d.srv, window)
	if err != nil {
		return nil, err
	}
	b := &KVBatchClient{d: d, g: g}
	b.flushFn = func(ret uint64) {
		b.done(b.completed, ret)
		b.completed++
	}
	return b, nil
}

// OnDone installs the completion callback. It must be set before the
// first submission and not changed while operations are in flight.
func (b *KVBatchClient) OnDone(fn func(seq int, ret uint64)) { b.done = fn }

// Close releases the client's delegation channels. All in-flight
// operations must have been Flushed first.
func (b *KVBatchClient) Close() { b.g.Close() }

// InFlight returns the number of submitted-but-uncompleted operations.
func (b *KVBatchClient) InFlight() int { return b.submitted - b.completed }

func (b *KVBatchClient) reap(ret uint64, ok bool) {
	b.submitted++
	if ok {
		b.done(b.completed, ret)
		b.completed++
	}
}

// Get submits a lookup; the completion's ret is the value, or the miss
// sentinel (^uint64(0)) when absent.
func (b *KVBatchClient) Get(key uint64) {
	b.reap(b.g.Submit1(b.d.fidGet, key))
}

// Set submits a store. Storing the miss sentinel is the caller's
// responsibility to reject — the delegated function cannot distinguish
// it from a miss on later lookups.
func (b *KVBatchClient) Set(key, value uint64) {
	b.reap(b.g.Submit2(b.d.fidSet, key, value))
}

// SetTTL submits a store expiring ttl ticks after the server's clock as
// of the apply (server-owned time; ttl 0 means no expiry). The sentinel
// caveat of Set applies.
func (b *KVBatchClient) SetTTL(key, value, ttl uint64) {
	b.reap(b.g.Submit3(b.d.fidSetTTLNow, key, value, ttl))
}

// Touch submits an expiry refresh to ttl ticks after the server's clock;
// the completion's ret is 1 when the key was present and live, 0
// otherwise.
func (b *KVBatchClient) Touch(key, ttl uint64) {
	b.reap(b.g.Submit2(b.d.fidTouch, key, ttl))
}

// Flush completes every outstanding operation, delivering the remaining
// completions in submit order, and resets seq numbering for the next
// batch.
func (b *KVBatchClient) Flush() {
	b.g.Flush(b.flushFn)
	b.submitted, b.completed = 0, 0
}
