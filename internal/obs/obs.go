// Package obs is the delegation-aware observability subsystem: an
// always-available, low-overhead answer to "where does the time of a
// delegated request go?".
//
// It has three parts:
//
//   - a lock-free, per-goroutine ring-buffer event tracer (TraceSink)
//     recording the delegation lifecycle — client issue / wait / complete,
//     server sweep / execute / respond / park / wake, supervisor crash /
//     restart — with nanosecond timestamps, exportable as Chrome
//     trace_event JSON (chrome://tracing, Perfetto);
//
//   - a lightweight metrics registry (Registry) of counters, gauges and
//     histogram-backed summaries with a Prometheus text-format exposition
//     handler;
//
//   - phase-latency attribution (Attribute) that folds raw events into
//     per-operation breakdowns: slot-wait (issue → server pickup), service
//     (pickup → response publication) and response-wait (publication →
//     client observation).
//
// Producers reach the tracer through the Tracer interface, which
// instrumented packages (internal/core, internal/rcl) carry as a
// nil-by-default field — exactly the pattern of the fault-injection hooks:
// with a nil Tracer the instrumented hot paths pay one predictable branch
// per event site and allocate nothing.
//
// # Concurrency model
//
// A TraceSink is a set of single-writer rings: one for the server
// goroutine, one per client slot, and a mutex-guarded control ring for
// rare cross-goroutine lifecycle events (restarts). Each ring publishes
// its write cursor with a release store, so a concurrent Snapshot reads
// only fully-written, immutable events — recording is lock-free and
// Snapshot is safe at any time, including against a live server. Rings
// record until full (Chrome tracing's "record until full" mode) and count
// further events as drops; bounded capture keeps published events
// immutable, which is what makes the lock-free snapshot race-free.
//
// One sink observes one delegation server. Sharded pools want one sink
// per shard server: rings are keyed by slot index, which is only unique
// within a server.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies a delegation lifecycle event. The vocabulary is shared
// by every instrumented layer — core delegation, RCL — so one analysis
// pipeline (Attribute, ffwdtrace) serves both.
type Kind uint8

// The delegation lifecycle vocabulary.
const (
	// KindClientIssue: a client published a request header. Arg is the
	// slot's request sequence number.
	KindClientIssue Kind = iota
	// KindClientWaitStart: the client began waiting for the response.
	KindClientWaitStart
	// KindClientComplete: the client observed the response. Arg is the
	// sequence number.
	KindClientComplete
	// KindSweepStart: the server began a polling sweep that served at
	// least one request. Arg is the sweep ordinal.
	KindSweepStart
	// KindExecute: the server picked up a request and is about to
	// execute it. Arg is the sequence number.
	KindExecute
	// KindRespond: the server published the request's response (the
	// toggle-word flush covering this slot). Arg is the sequence number.
	KindRespond
	// KindPark: the idle server blocked on its notification word.
	KindPark
	// KindWake: the parked server resumed after a wake.
	KindWake
	// KindCrash: the server goroutine died abnormally. Arg is the global
	// op index at capture time.
	KindCrash
	// KindRestart: a crashed server goroutine was relaunched. Arg is the
	// restart ordinal.
	KindRestart
	// KindFailover: a replica group promoted a follower to leader after
	// the previous leader died. Slot is -1; Arg is the new term.
	KindFailover
	// KindMaintain: the idle server ran bounded background maintenance
	// (timer-wheel advance, expiry reclaim) between empty sweeps. Slot is
	// -1; Arg is the units of work done.
	KindMaintain

	numKinds
)

// kindNames are the stable external names (Chrome JSON, tables).
var kindNames = [numKinds]string{
	KindClientIssue:     "client-issue",
	KindClientWaitStart: "client-wait-start",
	KindClientComplete:  "client-complete",
	KindSweepStart:      "server-sweep-start",
	KindExecute:         "server-execute",
	KindRespond:         "server-respond",
	KindPark:            "server-park",
	KindWake:            "server-wake",
	KindCrash:           "server-crash",
	KindRestart:         "server-restart",
	KindFailover:        "replica-failover",
	KindMaintain:        "server-maintain",
}

// String returns the kind's stable external name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a stable external name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Tracer receives delegation lifecycle events. Instrumented packages hold
// a Tracer in a nil-by-default configuration field; nil disables tracing
// at the cost of one predictable branch per event site.
//
// Hot paths buffer a run of events stamped with Now and hand them over in
// one EventBatch call, which appends them to the destination ring with a
// single cursor publication. The events of one EventBatch call must all
// come from the same writer goroutine and route to the same ring: either
// client kinds for one slot, or server kinds. Their timestamps must come
// from Now and be non-decreasing within the batch.
//
// Event records one event directly. It serves the rare kinds, including
// the control-ring kinds (KindRestart, KindFailover), which must never
// appear in a batch. Event must be safe for concurrent use, but events for
// one client slot must come from one goroutine at a time.
type Tracer interface {
	Event(k Kind, slot int32, arg uint64)
	// Now returns the tracer's current timestamp in its internal clock
	// units, for stamping events that will be appended later by
	// EventBatch. The units are opaque to callers (raw TSC ticks on
	// amd64); the tracer converts them to nanoseconds when events leave
	// the sink.
	Now() int64
	// EventBatch appends a run of pre-stamped events in one ring append.
	EventBatch(evs []Event)
}

// Event is one recorded lifecycle event.
type Event struct {
	// TS is the event's timestamp relative to the sink's start. Events
	// returned by Snapshot (and everything downstream: Attribute, Chrome
	// export) carry nanoseconds. Inside the sink's rings — and in the
	// pre-stamped batches Tracer callers build — TS is in the sink's
	// raw clock units (TSC ticks on amd64, where reading the counter
	// costs about half a vDSO clock call); Snapshot calibrates the
	// tick-to-nanosecond ratio against the monotonic clock over the
	// sink's lifetime and converts, keeping the scaling work off the
	// recording hot path.
	TS int64
	// Kind is the lifecycle event kind.
	Kind Kind
	// Slot is the client slot the event concerns, or -1 for server-wide
	// events (sweeps, parks, crashes).
	Slot int32
	// Arg is the kind-specific payload — the request sequence number for
	// per-operation events.
	Arg uint64
}

// ring is a single-writer, record-until-full event buffer. The writer
// publishes each event with a release store of the cursor; readers load
// the cursor with acquire semantics and may then read every published
// entry, which is never overwritten — that is what makes concurrent
// snapshots race-free without locks.
type ring struct {
	evs   []Event
	pos   atomic.Uint64
	drops atomic.Uint64
}

func (r *ring) record(ev Event) {
	n := r.pos.Load() // single writer: reading our own cursor
	if n >= uint64(len(r.evs)) {
		r.drops.Add(1)
		return
	}
	r.evs[n] = ev
	r.pos.Store(n + 1)
}

// recordBatch appends a run of events with one cursor publication: the
// write-combined analogue of record. Events that do not fit are dropped
// (and counted); the prefix that fits is still published.
func (r *ring) recordBatch(evs []Event) {
	n := r.pos.Load() // single writer: reading our own cursor
	free := uint64(len(r.evs)) - n
	if free < uint64(len(evs)) {
		r.drops.Add(uint64(len(evs)) - free)
		if free == 0 {
			return
		}
		evs = evs[:free]
	}
	copy(r.evs[n:], evs)
	r.pos.Store(n + uint64(len(evs)))
}

// snapshotInto appends the ring's published events to dst.
func (r *ring) snapshotInto(dst []Event) []Event {
	n := r.pos.Load()
	return append(dst, r.evs[:n]...)
}

// SinkConfig sizes a TraceSink.
type SinkConfig struct {
	// Clients is the number of client slots (one ring each). Events for
	// slots beyond it are dropped and counted. Default 64.
	Clients int
	// ServerCap is the server ring's capacity in events. Default 1<<16.
	ServerCap int
	// ClientCap is each client ring's capacity in events. Default 1<<12.
	ClientCap int
}

func (c SinkConfig) withDefaults() SinkConfig {
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.ServerCap <= 0 {
		c.ServerCap = 1 << 16
	}
	if c.ClientCap <= 0 {
		c.ClientCap = 1 << 12
	}
	return c
}

// ctrlCap bounds the control ring; lifecycle events are rare.
const ctrlCap = 1 << 10

// TraceSink is the Tracer implementation: per-goroutine rings plus a
// monotonic clock base. Create one per delegation server and pass it
// through the server's configuration.
type TraceSink struct {
	start      time.Time
	wallStart  time.Time
	startTicks int64
	server     ring
	clients    []ring

	// ctrl holds events whose writers are not bound to one goroutine
	// (supervisor restarts); it is mutex-guarded, which is fine off the
	// hot path.
	ctrlMu    sync.Mutex
	ctrl      []Event
	ctrlDrops atomic.Uint64

	misrouted atomic.Uint64
}

// NewTraceSink allocates a sink: all ring memory is committed up front —
// allocated and pre-faulted — so recording never allocates and never
// stalls on a fresh page. Without the pre-fault, the OS hands ring pages
// out lazily and every ~128th recorded event would pay a page fault
// inside the traced hot path.
func NewTraceSink(cfg SinkConfig) *TraceSink {
	cfg = cfg.withDefaults()
	t := &TraceSink{clients: make([]ring, cfg.Clients)}
	t.server.evs = makeRingBuf(cfg.ServerCap)
	for i := range t.clients {
		t.clients[i].evs = makeRingBuf(cfg.ClientCap)
	}
	// Anchor the two clocks adjacently, after the pre-fault work, so the
	// tick origin and the nanosecond origin name the same instant as
	// closely as possible (the pair is the calibration base).
	t.start = time.Now()
	t.wallStart = t.start
	t.startTicks = cputicks()
	return t
}

// makeRingBuf allocates a ring buffer and touches one event per page so
// the memory is resident before recording starts.
func makeRingBuf(n int) []Event {
	evs := make([]Event, n)
	// Stride such that consecutive touches are at most one 4 KiB page
	// apart (events are under 32 bytes each).
	const perPage = 4096 / 32
	for i := 0; i < len(evs); i += perPage {
		evs[i].TS = 0
	}
	return evs
}

// Event records one lifecycle event, routing it to the writer's ring:
// client kinds to the slot's ring, server kinds to the server ring,
// cross-goroutine lifecycle kinds to the control ring. It never blocks
// and never allocates.
func (t *TraceSink) Event(k Kind, slot int32, arg uint64) {
	ev := Event{TS: cputicks() - t.startTicks, Kind: k, Slot: slot, Arg: arg}
	switch k {
	case KindClientIssue, KindClientWaitStart, KindClientComplete:
		if slot < 0 || int(slot) >= len(t.clients) {
			t.misrouted.Add(1)
			return
		}
		t.clients[slot].record(ev)
	case KindRestart, KindFailover:
		t.ctrlMu.Lock()
		if len(t.ctrl) < ctrlCap {
			t.ctrl = append(t.ctrl, ev)
		} else {
			t.ctrlDrops.Add(1)
		}
		t.ctrlMu.Unlock()
	default:
		t.server.record(ev)
	}
}

// EventBatch appends a run of pre-stamped events in one ring append. All
// events in one call must come from the same writer goroutine and route to
// the same ring (see Tracer); the ring is chosen by the first event's
// kind. It never blocks and never allocates.
func (t *TraceSink) EventBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	switch evs[0].Kind {
	case KindClientIssue, KindClientWaitStart, KindClientComplete:
		slot := evs[0].Slot
		if slot < 0 || int(slot) >= len(t.clients) {
			t.misrouted.Add(uint64(len(evs)))
			return
		}
		t.clients[slot].recordBatch(evs)
	default:
		t.server.recordBatch(evs)
	}
}

// Now returns the sink's current relative timestamp in its internal
// clock units (raw TSC ticks on amd64) — the stamp source for
// EventBatch callers. Snapshot converts recorded stamps to nanoseconds.
func (t *TraceSink) Now() int64 { return cputicks() - t.startTicks }

// nsPerTick calibrates the sink clock against the monotonic clock over
// the sink's lifetime: the longer the sink has run, the tighter the
// ratio. On non-amd64 builds ticks already are nanoseconds and the ratio
// resolves to ~1.
func (t *TraceSink) nsPerTick() float64 {
	ticks := cputicks() - t.startTicks
	ns := int64(time.Since(t.start))
	if ticks <= 0 || ns <= 0 {
		return 1
	}
	return float64(ns) / float64(ticks)
}

// WallStart returns the wall-clock time of the sink's timestamp origin.
func (t *TraceSink) WallStart() time.Time { return t.wallStart }

// Snapshot returns every published event, merged across rings, converted
// to nanosecond timestamps and sorted by time. It is safe to call
// concurrently with recording: only fully-published events are read, and
// events published after the snapshot began may or may not appear.
func (t *TraceSink) Snapshot() []Event {
	n := int(t.server.pos.Load())
	for i := range t.clients {
		n += int(t.clients[i].pos.Load())
	}
	out := make([]Event, 0, n+8)
	out = t.server.snapshotInto(out)
	for i := range t.clients {
		out = t.clients[i].snapshotInto(out)
	}
	t.ctrlMu.Lock()
	out = append(out, t.ctrl...)
	t.ctrlMu.Unlock()
	if factor := t.nsPerTick(); factor != 1 {
		for i := range out {
			out[i].TS = int64(float64(out[i].TS) * factor)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Drops returns the number of events lost to full rings (plus any routed
// to out-of-range slots). A non-zero value means the capture window
// outgrew the configured capacities; the recorded prefix is still
// internally consistent.
func (t *TraceSink) Drops() uint64 {
	n := t.server.drops.Load() + t.ctrlDrops.Load() + t.misrouted.Load()
	for i := range t.clients {
		n += t.clients[i].drops.Load()
	}
	return n
}

// Len returns the number of published events.
func (t *TraceSink) Len() int {
	n := int(t.server.pos.Load())
	for i := range t.clients {
		n += int(t.clients[i].pos.Load())
	}
	t.ctrlMu.Lock()
	n += len(t.ctrl)
	t.ctrlMu.Unlock()
	return n
}

// CountByKind tallies published events per kind — the cheap health view
// (are responses being published? did the server park?).
func CountByKind(events []Event) map[Kind]int {
	m := make(map[Kind]int, numKinds)
	for _, ev := range events {
		m[ev.Kind]++
	}
	return m
}
