// Package core implements ffwd — fast, fly-weight delegation — the primary
// contribution of "ffwd: delegation is (much) faster than you think"
// (SOSP 2017).
//
// One goroutine (the server) owns a set of data structures outright and
// executes short functions on behalf of many client goroutines. Clients and
// server communicate over per-client request slots and per-group shared
// response lines, with toggle bits indicating channel state:
//
//   - each client core owns a 128-byte request line pair, written only by
//     that client and read only by the server;
//   - up to GroupSize clients share one 128-byte response line pair,
//     written only by the server;
//   - a request is pending iff the client's request toggle differs from its
//     response toggle; the response is ready when they are equal again;
//   - the server polls groups round-robin, buffers return values locally,
//     and flushes each group's response line as one uninterrupted series of
//     writes, toggle word last.
//
// Two substitutions versus the paper's C implementation, both dictated by
// Go: delegated functions are registered once and addressed by FuncID
// (passing raw function pointers through shared memory words is not
// expressible in safe Go), and the toggle words are published with
// sync/atomic release/acquire stores rather than relying on x86 total store
// order. Argument words remain plain stores, ordered by the toggle
// publication exactly as the paper's design orders them by the final toggle
// write.
//
// # Hot path
//
// Two structures keep the polling loop proportional to the number of live
// clients rather than the number of provisioned slots: a per-group
// occupancy bitmask (bit set when NewClient hands out the slot, cleared by
// Client.Close) and an active-group high-water mark. A sweep loads one
// mask word per active group and walks only its set bits, so a server
// provisioned for hundreds of clients but serving one touches one request
// line per pass; trailing all-empty groups are skipped without even
// loading their mask.
//
// # Exactly-once delegation
//
// A server crash between executing a request and flushing its response
// re-delivers the request to the restarted goroutine (the toggle still
// differs). To keep delegation exactly-once for non-idempotent functions,
// every issue stamps a per-slot monotonic sequence number into the
// request line's eighth word, and the server records each slot's last
// applied (sequence, return) pair in a ledger before the crash-injection
// point. A re-delivered request whose sequence matches the ledger is
// answered from the recorded return value instead of re-executed;
// Stats.LedgerSkips counts these fenced duplicates. Client.DelegateRetry
// builds safe automatic retry on top: the request is issued once and only
// ever re-waited (never re-issued), with capped exponential backoff.
//
// # Idle policy
//
// An idle server descends a spin → park ladder: every empty sweep
// yields the processor, and after Config.IdleParkAfter consecutive empty
// sweeps the server parks on a notification word and blocks. The ladder
// also predicts the next gap from two counts it already keeps, the
// requests served per busy period and the empty sweeps per gap. When the
// last few busy periods each served one request and each gap after them
// was long — a lone client with think time, such as one ping-pong
// connection — spinning through the next gap cannot pay, so the server
// parks at its first empty sweep. A batch or a short gap returns it to
// the ladder, and a periodic probe gap is spun to re-measure, so the
// prediction is never sticky. At GOMAXPROCS=1 clients run only while the
// server yields, and the plain ladder is kept. A client whose own wait
// ladder reached its sleep rung sleeps on a nudge channel that the server
// signals at the first empty sweep of each gap (Server.nudge), so a
// server that parks does not leave the sleeper to a timer.
//
// Clients check the notification word after publishing a request header
// — a single atomic load on an otherwise read-shared line — and the
// first Issue against a parked server performs the one-time CAS+wake
// handoff. A Dekker-style re-sweep after setting the parked flag closes
// the race between a client publishing just before the flag was visible
// and the server blocking.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"ffwd/internal/obs"
	"ffwd/internal/padded"
)

// GroupSize is the number of clients sharing one response line pair: a
// 128-byte pair holds one toggle word plus 15 eight-byte return values,
// exactly the paper's layout.
const GroupSize = 15

// MaxArgs is the maximum number of argument words per request, as in the
// paper (six, mirroring the x86-64 parameter-passing registers).
const MaxArgs = 6

// reqWords is the size of one client's request slot in words: header,
// six argument words, one sequence word — 64 bytes, so two clients (the
// two hardware threads of a core, in the paper's terms) share a line
// pair. The sequence word carries the slot's monotonic request number,
// the fence behind exactly-once re-delivery (see reqSeqWord).
const reqWords = 8

// reqSeqWord is the index of the per-slot sequence word inside a request
// slot. Each issue stamps the slot's next monotonic sequence number there
// (ordered by the same releasing header store that orders the argument
// words); the server records the last applied sequence per slot in its
// ledger, so a request re-delivered after a crash restart — the toggle
// still differs because the response was never flushed — is recognized
// as a duplicate and answered from the ledger instead of re-executed.
const reqSeqWord = 7

// respWords is the size of one response group in words: toggle word plus
// GroupSize return values — one 128-byte line pair.
const respWords = 16

// sweepEvCap sizes the sweep's local trace-event buffer: one sweep-start
// event plus, per group between flushes, at most GroupSize execute and
// GroupSize respond events. The buffer drains at every group flush, so
// one group's worth of capacity bounds a whole sweep.
const sweepEvCap = 1 + 2*GroupSize

// Request header word layout.
const (
	hdrToggleBit = 1 << 0
	hdrArgcShift = 8
	hdrArgcMask  = 0x7 << hdrArgcShift
	hdrFuncShift = 16
	hdrSeededBit = 1 << 4 // distinguishes slot-never-used from toggle 0
)

// defaultIdleParkAfter is the number of consecutive empty sweeps after
// which an idle server parks: the cap of the spinning ladder. Large
// enough that a server under bursty load never parks between bursts,
// small enough that a genuinely idle server stops consuming its
// processor within microseconds. A lone client's gaps are predicted
// (loneGap, loneRun, loneProbe) and parked at once instead.
const defaultIdleParkAfter = 64

// The lone-client prediction of the idle ladder. A gap is lone when the
// busy period before it served exactly one request and the gap outlasted
// loneGap empty sweeps or ended in a park. After loneRun lone gaps in a
// row the server parks at the first empty sweep of the next one, except
// that every loneProbe-th gap is spun on the ladder again, up to
// loneGap+1 sweeps, so a client that stops thinking is seen within
// loneProbe requests. Within a pipelined window the gaps are a sweep or
// two, so a window never looks lone. loneGap sits above the break-even
// of parking, measured on a 2-vCPU host: an empty sweep with its yield
// took about 0.3–1 µs, and a park and wake cost the next request a few
// µs, which a sync client thinking under about 10 µs (≈ 30 sweeps) paid
// without a saving, while a ping-pong connection's gaps ran 50–64 sweeps.
const (
	loneGap   = 32
	loneRun   = 4
	loneProbe = 64
)

// defaultBackgroundBudget is the per-empty-sweep cap on Background-hook
// work units. Small enough that a request arriving mid-maintenance waits
// at most a few dozen pointer relinks; large enough that an expiry storm
// drains in a handful of otherwise-wasted idle sweeps.
const defaultBackgroundBudget = 32

// Func is a delegated function: it receives up to MaxArgs argument words
// and returns one word. It runs on the server goroutine and must not
// block — exactly the paper's contract ("any non-blocking C function").
// The argument array is a server-owned buffer reused across requests:
// a Func must not retain the pointer past its return.
type Func func(args *[MaxArgs]uint64) uint64

// FuncID identifies a registered Func.
type FuncID uint32

// Hooks is the fault-injection interface (see internal/fault for the
// deterministic, seed-driven implementation). A nil Hooks — the default —
// costs the hot path one predictable branch per sweep and per request.
// All methods may be called concurrently from the server goroutine and
// from clients (DropWake), and must be safe for that.
//
// op arguments are the zero-based global index of the request being (or
// about to be) served; after a crash restart, requests executed but not
// flushed are re-served under their original indices.
type Hooks interface {
	// Sweep is called at the top of polling sweep n; it may sleep to
	// simulate a delayed/descheduled server.
	Sweep(n uint64)
	// Call is called inside the delegated-call recovery scope, just
	// before the function executes; it may sleep (slow function) or
	// panic (broken function).
	Call(fid, op uint64)
	// DropWake is consulted on the client-side park/wake handoff;
	// returning true drops the wake, simulating a lost notification.
	DropWake() bool
	// Kill is consulted after each request is served; returning true
	// crashes the server goroutine (a panic outside the delegated-call
	// recovery), simulating a server death mid-flight.
	Kill(op uint64) bool
}

// PanicRecord captures a panic (or an unknown-function request) observed
// by the server: the queryable error record behind the legacy all-ones
// return sentinel. It implements error.
type PanicRecord struct {
	// Msg is the stringified panic payload.
	Msg string
	// FID is the delegated function involved; HasFID distinguishes a
	// delegated-call panic (true) from a server-loop crash outside any
	// call (false).
	FID    FuncID
	HasFID bool
	// Op is the zero-based global request index at capture time.
	Op uint64
}

// Error renders the record as an error string.
func (r *PanicRecord) Error() string {
	if r.HasFID {
		return fmt.Sprintf("core: delegated func %d panicked at op %d: %s", r.FID, r.Op, r.Msg)
	}
	return fmt.Sprintf("core: server crashed at op %d: %s", r.Op, r.Msg)
}

// ErrTimeout is returned by the bounded-wait APIs when the deadline
// expires before the response arrives. The request remains outstanding:
// the next call on the same client first drains its late response.
var ErrTimeout = errors.New("core: request timed out")

// ErrServerStopped is returned by the bounded-wait APIs when the server
// goroutine is not running (never started, deliberately stopped, or
// crashed and not yet restarted), so the response cannot arrive.
var ErrServerStopped = errors.New("core: server not running")

// Config parameterizes a Server. The zero value is usable: one group of
// GroupSize clients. Responses are always buffered and flushed once per
// group per sweep; the paper's design-choice ablations (write-through
// responses, private response lines, a server-side lock) run in the
// simulator (internal/simsync), not here.
type Config struct {
	// MaxClients bounds the number of client slots; it is rounded up to
	// a whole number of groups of GroupSize. Default: GroupSize.
	MaxClients int
	// IdleParkAfter is the number of consecutive empty polling sweeps
	// (each of which yields the processor) after which the server parks
	// on its notification word and stops consuming the processor
	// entirely until the next Issue wakes it. It caps the spinning
	// ladder; the gaps of a lone client park sooner (see "Idle policy").
	// 0 selects the default (64); a negative value disables parking —
	// the server then spins and yields forever, the pre-park behaviour.
	IdleParkAfter int
	// Hooks, if non-nil, injects faults at the server's fault points
	// (see the Hooks interface and internal/fault). nil — the default —
	// leaves only one predictable branch on the hot path.
	Hooks Hooks
	// Trace, if non-nil, receives delegation lifecycle events (issue,
	// execute, respond, park, crash, ...) — see internal/obs. Like Hooks,
	// nil (the default) costs the hot paths one predictable branch per
	// event site and nothing else.
	Trace obs.Tracer
	// Background, if non-nil, is the server's bounded maintenance hook:
	// after every *empty* sweep — before the idle-ladder decision — the
	// server calls Background(budget) on its own goroutine, so the hook
	// may touch delegated structures without synchronization. It must do
	// at most budget units of work and return the units actually done; a
	// return equal to budget means work remains, and the server stays
	// hot (the idle counter resets) instead of descending toward a park.
	// A parked server runs no maintenance until the next wake, so owners
	// must keep a lazy correctness backstop (e.g. per-Get expiry checks).
	Background func(budget int) int
	// BackgroundBudget caps the units one empty sweep may spend in the
	// Background hook. 0 selects the default (32); a negative value
	// disables the hook entirely.
	BackgroundBudget int
}

// Stats is a snapshot of server activity counters.
type Stats struct {
	// Requests is the number of delegated calls served.
	Requests uint64
	// Sweeps is the number of full polling passes over all groups.
	Sweeps uint64
	// Batches is the number of response-line flushes.
	Batches uint64
	// IdleYields is the number of times the server yielded for lack of
	// work.
	IdleYields uint64
	// IdleParks is the number of times the server parked on its
	// notification word for lack of work.
	IdleParks uint64
	// Wakes is the number of times a client (or Stop) woke a parked
	// server.
	Wakes uint64
	// SlotsSkipped is the number of request slots that polling sweeps
	// passed over without loading their request line, because the
	// occupancy mask showed them unallocated (including every slot of a
	// group beyond the active-group high-water mark).
	SlotsSkipped uint64
	// Panics is the number of delegated functions that panicked; each
	// was answered with the all-ones sentinel (and recorded — see
	// LastPanic and Client.DelegateErr).
	Panics uint64
	// ServerCrashes is the number of times the server goroutine died
	// abnormally (a panic outside the delegated-call recovery).
	ServerCrashes uint64
	// Restarts is the number of times a crashed server goroutine was
	// relaunched (by a Supervisor or RestartIfCrashed).
	Restarts uint64
	// HeartbeatMisses is the number of supervisor health checks that
	// found the heartbeat (sweep counter) stalled on an unparked,
	// supposedly-live server.
	HeartbeatMisses uint64
	// Kicks is the number of unconditional rescue wakes sent to the
	// server loop (supervisor rescues of lost wakes, plus shutdown).
	Kicks uint64
	// AbandonedSlots is the number of client slots retired — leaked
	// deliberately — because the client was closed while a timed-out
	// request was still outstanding (the slot cannot be recycled while
	// its late response may still arrive).
	AbandonedSlots uint64
	// LedgerSkips is the number of re-delivered requests answered from
	// the last-applied ledger instead of re-executed: each one is a
	// duplicate delivery (a crash lost the flushed response but not the
	// applied effect) that the sequence fence converted from
	// at-least-once into exactly-once.
	LedgerSkips uint64
	// RetryWaits is the number of backoff sleeps taken by the
	// client-side retry policies (DelegateRetry and friends) while
	// waiting out timeouts, crashes, and restarts.
	RetryWaits uint64
	// BackgroundRuns is the number of empty sweeps on which the
	// Background maintenance hook did nonzero work.
	BackgroundRuns uint64
	// BackgroundUnits is the total units of work the Background hook has
	// reported (fired timers, cascade relinks, evictions, ...).
	BackgroundUnits uint64
	// LastPanic is the most recent panic record (delegated-call panic or
	// server crash), or nil if none has occurred.
	LastPanic *PanicRecord
}

// Server is a ffwd delegation server. Create one with NewServer, register
// the functions it may execute, obtain Clients, then Start it.
type Server struct {
	cfg     Config
	nGroups int

	// reqWords holds every client's request slot, line-pair aligned;
	// client i owns words [i*reqWords, (i+1)*reqWords).
	req []uint64
	// resp holds every group's response line, line-pair aligned; group
	// g owns words [g*respWords, (g+1)*respWords) — toggle word first,
	// then return values.
	resp []uint64

	// occ[g] is the occupancy bitmask of group g: bit m set iff slot
	// g*GroupSize+m has been handed to a client (and not Closed).
	// Written with atomic RMWs by NewClient/Close, loaded atomically —
	// once per group, not per slot — by the server's sweep.
	occ []uint64
	// activeGroups is a high-water bound: 1 + the highest group index
	// that has ever held a client. Sweeps do not look past it. It never
	// shrinks — a freed slot leaves its group cheap to scan (one mask
	// load) but still scanned.
	activeGroups atomic.Int32

	// funcs is the append-only function registry, swapped atomically so
	// the server reads it without locks.
	funcs atomic.Pointer[[]Func]
	regMu sync.Mutex

	// nextSlot is the bump allocator for never-used slots; freeSlots
	// (under slotMu) holds slots returned by Client.Close for reuse.
	nextSlot  atomic.Int32
	slotMu    sync.Mutex
	freeSlots []int

	// lifeMu serializes Start/Stop/RestartIfCrashed so a restart cannot
	// race a concurrent Stop reading the previous generation's done
	// channel.
	lifeMu   sync.Mutex
	running  atomic.Bool
	stopping padded.Bool
	done     chan struct{}
	// alive is true while a server goroutine is running (between Start
	// or a restart and the goroutine's exit, normal or by crash). The
	// bounded waits poll it to fail fast instead of spinning on a dead
	// server.
	alive atomic.Bool
	// crashed is set when the goroutine exits via a panic that escaped
	// the delegated-call recovery; RestartIfCrashed clears it.
	crashed atomic.Bool

	// hooks is the fault-injection interface from Config; nil outside
	// chaos runs.
	hooks Hooks

	// trace is the lifecycle-event sink from Config; nil outside traced
	// runs. Gated exactly like hooks: one branch per event site. Sweep
	// lifecycle events are buffered locally and appended with one ring
	// cursor bump per group flush instead of one per event.
	trace obs.Tracer

	// ledger[i] is slot i's last applied request: its sequence number and
	// return value. Written only by the server goroutine, after executing
	// a request and before the injected-kill fault point, so a crash that
	// loses the response flush cannot lose the applied record. Read only
	// by the server goroutine; generations are ordered by the done
	// channel, so plain accesses are race-free across a crash restart.
	// A re-delivered request (toggle pending, sequence equal) is answered
	// from here instead of re-executed — exactly-once delegation.
	ledger []ledgerEntry

	// lastPanic is the most recent PanicRecord; slotPanic[i] is the most
	// recent record produced while serving slot i, published before the
	// response toggle so a client that received the sentinel can read
	// its own record race-free (DelegateErr/DelegateTimeout clear their
	// slot's entry before issuing).
	lastPanic atomic.Pointer[PanicRecord]
	slotPanic []atomic.Pointer[PanicRecord]

	// parked is set by the server just before it blocks on wake; a
	// client that observes it after publishing a request performs the
	// CAS+send handoff in wakeServer. wake is buffered and allocated
	// once: the CAS gate admits at most one in-flight token.
	parked padded.Bool
	wake   chan struct{}
	// sleepers counts the clients on the sleep rung of their wait
	// ladder, who sleep on nudge: at the first empty sweep of a gap the
	// server sends one token per sleeper. Left to its timer, a sleeper
	// whose response came late would wake, in a process parked between
	// lone requests, only at the netpoller's next 1 ms tick. A token
	// left by a sleeper its timer woke first only ends a later sleep
	// early; the buffer (one per slot) never blocks the server.
	sleepers atomic.Int32
	nudge    chan struct{}

	nRequests      padded.Uint64
	nSweeps        padded.Uint64
	nBatches       padded.Uint64
	nIdleYields    padded.Uint64
	nIdleParks     padded.Uint64
	nWakes         padded.Uint64
	nSlotsSkipped  padded.Uint64
	nPanics        padded.Uint64
	nCrashes       padded.Uint64
	nRestarts      padded.Uint64
	nHeartbeatMiss padded.Uint64
	nKicks         padded.Uint64
	nAbandoned     padded.Uint64
	nLedgerSkips   padded.Uint64
	nRetryWaits    padded.Uint64
	nBgRuns        padded.Uint64
	nBgUnits       padded.Uint64

	// background/bgBudget mirror cfg (resolved defaults); only the server
	// goroutine calls the hook.
	background func(budget int) int
	bgBudget   int

	// win[i] is the window slot i belongs to, nil for a plain client's
	// slot. NewAsyncGroup stores it before the slot's first request, whose
	// header publication orders the store ahead of the server's read.
	win []*window
}

// window is what makes an AsyncGroup's submit order structural: the
// group's slots in issue order, and the position whose request runs next.
// An AsyncGroup issues round-robin from position 0, so a cursor that steps
// once per executed request names the oldest unexecuted one; the sweep
// passes over a window slot whose request is younger than that. cur is
// touched only by the server goroutine and, like the ledger, survives a
// crash restart.
type window struct {
	slots []int
	cur   int
}

// ledgerEntry is one slot's last-applied record: the sequence number of
// the most recent request executed on the slot and the return value it
// produced. seq 0 means nothing has been applied (clients stamp from 1).
type ledgerEntry struct {
	seq uint64
	ret uint64
}

// NewServer returns a stopped server with the given configuration.
func NewServer(cfg Config) *Server {
	maxClients := cfg.MaxClients
	if maxClients <= 0 {
		maxClients = GroupSize
	}
	nGroups := (maxClients + GroupSize - 1) / GroupSize
	slots := nGroups * GroupSize
	if cfg.IdleParkAfter == 0 {
		cfg.IdleParkAfter = defaultIdleParkAfter
	}
	s := &Server{
		cfg:       cfg,
		nGroups:   nGroups,
		req:       padded.AlignedUint64s(slots * reqWords),
		resp:      padded.AlignedUint64s(nGroups * respWords),
		occ:       make([]uint64, nGroups),
		done:      make(chan struct{}),
		wake:      make(chan struct{}, 1),
		nudge:     make(chan struct{}, slots),
		hooks:     cfg.Hooks,
		trace:     cfg.Trace,
		slotPanic: make([]atomic.Pointer[PanicRecord], slots),
		ledger:    make([]ledgerEntry, slots),
		win:       make([]*window, slots),
	}
	if cfg.BackgroundBudget >= 0 {
		s.background = cfg.Background
		s.bgBudget = cfg.BackgroundBudget
		if s.bgBudget == 0 {
			s.bgBudget = defaultBackgroundBudget
		}
	}
	close(s.done) // a never-started server is already "stopped"
	empty := make([]Func, 0, 16)
	s.funcs.Store(&empty)
	return s
}

// Register adds f to the server's function table and returns its id.
// Registration may happen at any time, including while the server runs.
func (s *Server) Register(f Func) FuncID {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	old := *s.funcs.Load()
	next := make([]Func, len(old)+1)
	copy(next, old)
	next[len(old)] = f
	s.funcs.Store(&next)
	return FuncID(len(old))
}

// MaxClients returns the number of client slots the server supports.
func (s *Server) MaxClients() int { return s.nGroups * GroupSize }

// ErrNoSlots is returned by NewClient when every client slot is taken.
var ErrNoSlots = errors.New("core: all client slots in use")

// allocSlot hands out a free slot index: a Closed slot if one is waiting,
// else the next never-used one. Exhaustion is non-destructive — a failed
// allocation consumes nothing, so slots freed later remain allocatable.
func (s *Server) allocSlot() (int, bool) {
	s.slotMu.Lock()
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		s.slotMu.Unlock()
		return slot, true
	}
	s.slotMu.Unlock()
	for {
		next := s.nextSlot.Load()
		if int(next) >= s.MaxClients() {
			return 0, false
		}
		if s.nextSlot.CompareAndSwap(next, next+1) {
			return int(next), true
		}
	}
}

// freeSlot returns a slot to the allocator after its occupancy bit has
// been cleared.
func (s *Server) freeSlot(slot int) {
	s.slotMu.Lock()
	s.freeSlots = append(s.freeSlots, slot)
	s.slotMu.Unlock()
}

// orOcc sets mask bits in occ[group] atomically. (A CAS loop rather than
// atomic.OrUint64 keeps the module buildable at its declared go version;
// this is a cold path.)
func (s *Server) orOcc(group int, mask uint64) {
	for {
		old := atomic.LoadUint64(&s.occ[group])
		if old&mask == mask || atomic.CompareAndSwapUint64(&s.occ[group], old, old|mask) {
			return
		}
	}
}

// andOcc clears the complement of mask bits in occ[group] atomically.
func (s *Server) andOcc(group int, mask uint64) {
	for {
		old := atomic.LoadUint64(&s.occ[group])
		if old&^mask == 0 || atomic.CompareAndSwapUint64(&s.occ[group], old, old&mask) {
			return
		}
	}
}

// NewClient allocates a client channel. Each Client must be used by one
// goroutine at a time. Close the client to return its slot for reuse;
// exhaustion (ErrNoSlots) does not consume a slot.
func (s *Server) NewClient() (*Client, error) {
	slot, ok := s.allocSlot()
	if !ok {
		return nil, ErrNoSlots
	}
	group := slot / GroupSize
	member := slot % GroupSize
	// A recycled slot's request header still carries its last toggle;
	// adopting it keeps the channel protocol coherent across owners. The
	// sequence word is adopted for the same reason: it must stay
	// monotonic per slot or the ledger could mistake a fresh request for
	// a duplicate. (The previous owner's Close happens-before this
	// allocation via the slot mutex, so the plain read is ordered.)
	toggle := atomic.LoadUint64(&s.req[slot*reqWords]) & hdrToggleBit
	s.win[slot] = nil // a recycled slot leaves its previous owner's window
	c := &Client{
		s:      s,
		slot:   slot,
		req:    s.req[slot*reqWords : (slot+1)*reqWords],
		respT:  &s.resp[group*respWords],
		respV:  &s.resp[group*respWords+1+member],
		bit:    uint64(1) << uint(member),
		toggle: toggle,
		tr:     s.trace,
		seq:    s.req[slot*reqWords+reqSeqWord],
	}
	// Publish occupancy last: once the bit is visible the server will
	// poll this slot's request line.
	s.orOcc(group, c.bit)
	for {
		ag := s.activeGroups.Load()
		if int(ag) > group || s.activeGroups.CompareAndSwap(ag, int32(group+1)) {
			break
		}
	}
	return c, nil
}

// MustNewClient is NewClient but panics when slots are exhausted.
func (s *Server) MustNewClient() *Client {
	c, err := s.NewClient()
	if err != nil {
		panic(err)
	}
	return c
}

// Start launches the server goroutine. It returns an error if the server
// is already running. Start after Stop is safe, from any goroutine.
func (s *Server) Start() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.running.Load() {
		return fmt.Errorf("core: server already running")
	}
	s.stopping.Store(false)
	s.crashed.Store(false)
	s.done = make(chan struct{})
	s.running.Store(true)
	s.alive.Store(true)
	go s.run(s.done)
	return nil
}

// Stop halts the server after the current sweep and waits for it to exit.
// Outstanding requests issued before Stop are still served. Stop is
// idempotent on a stopped server and may race a concurrent Start; the two
// serialize. Stopping a crashed server just records the stop (the
// goroutine is already gone) and prevents future supervised restarts.
func (s *Server) Stop() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.running.Load() {
		return
	}
	s.stopping.Store(true)
	s.kick() // a parked server must notice stopping, even under wake-drop faults
	<-s.done
	s.running.Store(false)
}

// Alive reports whether a server goroutine is currently running. False
// means never started, deliberately stopped, or crashed and not yet
// restarted; the bounded waits return ErrServerStopped in that state.
func (s *Server) Alive() bool { return s.alive.Load() }

// Crashed reports whether the server goroutine died of an escaped panic,
// has fully unwound, and has not been restarted or deliberately stopped —
// exactly the state RestartIfCrashed would repair. Supervisors with an
// OnCrash hand-off consult this before deciding who handles the failure.
func (s *Server) Crashed() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.running.Load() || s.stopping.Load() || !s.crashed.Load() {
		return false
	}
	select {
	case <-s.done:
		return true
	default:
		return false // goroutine still unwinding
	}
}

// LastPanic returns the most recent panic record (delegated-call panic,
// unknown-function request, or server crash), or nil.
func (s *Server) LastPanic() *PanicRecord { return s.lastPanic.Load() }

// RestartIfCrashed relaunches the server goroutine after an abnormal exit
// — a panic that escaped the delegated-call recovery — and reports whether
// a restart happened. Slot, toggle, and occupancy state live in the
// server's shared arrays and survive the crash untouched, so clients keep
// their channels: requests that were pending (including ones whose owners
// already timed out) are served by the restarted goroutine under the same
// protocol. Requests executed but not yet flushed when the crash hit are
// re-delivered, recognized by their slot sequence numbers against the
// last-applied ledger, and answered from the ledger without re-executing
// — delegation is exactly-once across a crash boundary (Stats.LedgerSkips
// counts the fenced duplicates).
//
// A deliberately stopped server is never restarted; Supervisor calls this
// on every health check.
func (s *Server) RestartIfCrashed() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if !s.running.Load() || s.stopping.Load() || !s.crashed.Load() {
		return false
	}
	select {
	case <-s.done:
	default:
		return false // goroutine still unwinding; next check catches it
	}
	s.crashed.Store(false)
	// The goroutine may have died with the parked flag raised (killed
	// during park's re-sweep); reset the flag and drop any stale wake
	// token so the new generation starts from a clean handoff state.
	s.parked.Store(false)
	select {
	case <-s.wake:
	default:
	}
	s.done = make(chan struct{})
	s.nRestarts.Add(1)
	if tr := s.trace; tr != nil {
		// Recorded from the supervisor's goroutine, not the server's —
		// the sink routes it to its mutex-guarded control ring.
		tr.Event(obs.KindRestart, -1, s.nRestarts.Load())
	}
	s.alive.Store(true)
	go s.run(s.done)
	return true
}

// wakeServer performs the park/wake handoff: whoever transitions parked
// from true to false owns the token send. The send is non-blocking: it
// can only find the buffer full when a stale token from an earlier
// retracted park is still queued, and that token wakes the server just as
// well.
func (s *Server) wakeServer() {
	if h := s.hooks; h != nil && h.DropWake() {
		return // injected lost-wake fault; Supervisor kicks rescue these
	}
	if s.parked.CompareAndSwap(true, false) {
		s.nWakes.Add(1)
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// kick unconditionally wakes the server loop: the parked flag is lowered
// if raised and one token is sent regardless. Unlike wakeServer it
// bypasses the fault hooks (it is the rescue path for dropped wakes) and
// tolerates a server that is not parked — a stale token only costs the
// next park one extra ladder climb. Used by Stop and the Supervisor.
func (s *Server) kick() {
	s.nKicks.Add(1)
	s.parked.CompareAndSwap(true, false)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Stats returns a snapshot of the server's activity counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:        s.nRequests.Load(),
		Sweeps:          s.nSweeps.Load(),
		Batches:         s.nBatches.Load(),
		IdleYields:      s.nIdleYields.Load(),
		IdleParks:       s.nIdleParks.Load(),
		Wakes:           s.nWakes.Load(),
		SlotsSkipped:    s.nSlotsSkipped.Load(),
		Panics:          s.nPanics.Load(),
		ServerCrashes:   s.nCrashes.Load(),
		Restarts:        s.nRestarts.Load(),
		HeartbeatMisses: s.nHeartbeatMiss.Load(),
		Kicks:           s.nKicks.Load(),
		AbandonedSlots:  s.nAbandoned.Load(),
		LedgerSkips:     s.nLedgerSkips.Load(),
		RetryWaits:      s.nRetryWaits.Load(),
		BackgroundRuns:  s.nBgRuns.Load(),
		BackgroundUnits: s.nBgUnits.Load(),
		LastPanic:       s.lastPanic.Load(),
	}
}

// Rows declares the counters the snapshot exports, once, for every stats
// sink (see obs.Registry). Requests, sweeps and batches lead: readers of
// the shutdown report key on that prefix.
func (s Stats) Rows() []obs.Row {
	return []obs.Row{
		{Name: "ffwd_requests_total", Key: "requests", Help: "Delegated requests executed.", Value: float64(s.Requests)},
		{Name: "ffwd_sweeps_total", Key: "sweeps", Help: "Server slot sweeps.", Value: float64(s.Sweeps)},
		{Name: "ffwd_batches_total", Key: "batches", Help: "Response-line flushes.", Value: float64(s.Batches)},
		{Name: "ffwd_panics_total", Key: "panics", Help: "Panics recovered inside delegated operations.", Value: float64(s.Panics)},
		{Name: "ffwd_crashes_total", Key: "crashes", Help: "Delegation server crashes.", Value: float64(s.ServerCrashes)},
		{Name: "ffwd_restarts_total", Key: "restarts", Help: "Delegation server restarts.", Value: float64(s.Restarts)},
		{Name: "ffwd_kicks_total", Key: "kicks", Help: "Unconditional rescue wakes sent to the server loop.", Value: float64(s.Kicks)},
		{Name: "ffwd_heartbeat_misses_total", Key: "heartbeat_misses", Help: "Supervisor checks that found the sweep counter stalled.", Value: float64(s.HeartbeatMisses)},
		{Name: "ffwd_abandoned_slots_total", Key: "abandoned_slots", Help: "Client slots retired with a timed-out request outstanding.", Value: float64(s.AbandonedSlots)},
		{Name: "ffwd_ledger_skips_total", Key: "ledger_skips", Help: "Duplicate requests skipped by the exactly-once ledger.", Value: float64(s.LedgerSkips)},
		{Name: "ffwd_retry_waits_total", Key: "retry_waits", Help: "Client waits that spanned a server restart.", Value: float64(s.RetryWaits)},
		{Name: "ffwd_idle_parks_total", Key: "idle_parks", Help: "Times the idle server parked on its notification word.", Value: float64(s.IdleParks)},
		{Name: "ffwd_wakes_total", Key: "wakes", Help: "Times a client (or Stop) woke a parked server.", Value: float64(s.Wakes)},
		{Name: "ffwd_maintain_runs_total", Key: "maintain_runs", Help: "Background maintenance runs between request sweeps (clock advance + wheel drain).", Value: float64(s.BackgroundRuns)},
		{Name: "ffwd_maintain_units_total", Key: "maintain_units", Help: "Maintenance work units (expiries fired + wheel cascades) done in the background hook.", Value: float64(s.BackgroundUnits)},
	}
}

// run is the server loop: poll every request slot group by group, execute
// new requests, buffer return values, flush per group. Empty sweeps climb
// the idle ladder: yield on each, park (block on the notification word)
// after IdleParkAfter, or at the first one when the gap is predicted to
// be a lone client's.
//
// done is this generation's completion channel, captured by value so a
// supervised restart installing a fresh channel cannot race the dying
// goroutine's close. A panic that reaches this frame (a server bug or an
// injected kill — delegated-function panics are recovered in call) is
// converted into a crash record; the goroutine exits with alive lowered
// and RestartIfCrashed may relaunch it.
func (s *Server) run(done chan struct{}) {
	defer func() {
		if r := recover(); r != nil {
			rec := &PanicRecord{Msg: fmt.Sprint(r), Op: s.nRequests.Load()}
			s.lastPanic.Store(rec)
			s.nCrashes.Add(1)
			s.crashed.Store(true)
			if tr := s.trace; tr != nil {
				tr.Event(obs.KindCrash, -1, rec.Op)
			}
		}
		s.alive.Store(false)
		close(done)
	}()

	var retBuf [GroupSize]uint64
	// seqBuf mirrors retBuf with the served requests' sequence numbers:
	// the group flush stores them into the ledger and stamps them on the
	// batched respond events.
	var seqBuf [GroupSize]uint64
	// evBuf is the sweep's local trace-event buffer: lifecycle events
	// accumulate here and reach the server ring in one combined append per
	// group flush.
	var evBuf [sweepEvCap]obs.Event
	// args is reused across requests: the escape through the indirect
	// Func call would otherwise cost one heap allocation per request.
	// Delegated functions must not retain the pointer past their call,
	// which the Func contract states.
	var args [MaxArgs]uint64
	// At GOMAXPROCS=1 a client runs only while the server yields, so
	// the server never parks early there.
	lad := idleLadder{parkAfter: s.cfg.IdleParkAfter, predict: runtime.GOMAXPROCS(0) > 1}
	// served toggle state per group is the response toggle word itself;
	// the server is its only writer, so it may read it plainly.
	for {
		if s.stopping.Load() {
			// Drain the requests issued before Stop. The second pass is for
			// a window that wraps: its requests behind the cursor's slot
			// wait for the ones ahead of it.
			s.sweep(&retBuf, &seqBuf, &args, &evBuf)
			s.sweep(&retBuf, &seqBuf, &args, &evBuf)
			return
		}
		served := s.sweep(&retBuf, &seqBuf, &args, &evBuf)
		if served == 0 {
			// The sweep found nothing: spend the otherwise-wasted pass on
			// bounded background maintenance (timer-wheel advance, expiry)
			// before deciding how far to descend the idle ladder. A full
			// budget spent means more maintenance is pending — stay hot so
			// the backlog drains across consecutive sweeps instead of
			// stalling behind a park.
			if bg := s.background; bg != nil {
				if units := bg(s.bgBudget); units > 0 {
					s.nBgRuns.Add(1)
					s.nBgUnits.Add(uint64(units))
					if tr := s.trace; tr != nil {
						tr.Event(obs.KindMaintain, -1, uint64(units))
					}
					if units >= s.bgBudget {
						// Skip the park descent, but still yield: at
						// GOMAXPROCS=1 clients never run (and never
						// produce work) unless the hot server gives up
						// the processor between maintenance slices.
						lad.idleSweeps = 0
						s.nIdleYields.Add(1)
						runtime.Gosched()
						continue
					}
				}
			}
			park := lad.empty()
			if lad.idleSweeps == 1 {
				// Every response a sleeper waits for is flushed: a
				// token each (a full buffer already holds enough).
				for n := s.sleepers.Load(); n > 0 && len(s.nudge) < cap(s.nudge); n-- {
					s.nudge <- struct{}{}
				}
			}
			if !park {
				s.nIdleYields.Add(1)
				runtime.Gosched()
				continue
			}
			if served = s.park(&retBuf, &seqBuf, &args, &evBuf); served == 0 {
				lad.blocked()
				continue
			}
			// The Dekker re-sweep caught the gap's first requests.
		}
		lad.served(served)
	}
}

// idleLadder is the idle ladder's state: three counts of the server
// loop's own input (see "Idle policy" in the package doc). idleSweeps is
// the current gap in empty sweeps, burst the requests served since the
// last gap, and lone the run of gaps that each followed a single request
// and outlasted loneGap sweeps or a park. It reads no clock, so a test
// can drive it through any schedule of gaps.
type idleLadder struct {
	parkAfter               int  // Config.IdleParkAfter; <= 0 never parks
	predict                 bool // the lone-client prediction is on
	idleSweeps, burst, lone int
}

// empty counts one empty sweep and reports whether the server parks now.
func (l *idleLadder) empty() bool {
	l.idleSweeps++
	limit := l.parkAfter
	if l.predict && l.burst == 1 && l.lone >= loneRun {
		// A lone request after lone requests: park at once, except on a
		// probe gap, which is measured again.
		limit = 1
		if l.lone%loneProbe == 0 {
			limit = min(l.parkAfter, loneGap+1)
		}
	}
	return l.parkAfter > 0 && l.idleSweeps >= limit
}

// blocked records that the server blocked in a park: the gap outlasted
// its rung, so it scores long whatever the sweeps counted.
func (l *idleLadder) blocked() { l.idleSweeps = loneGap + 1 }

// served records a sweep that served n > 0 requests. A gap before it
// ended: score it and start the next busy period.
func (l *idleLadder) served(n int) {
	if l.idleSweeps > 0 {
		l.lone++
		if l.burst != 1 || l.idleSweeps <= loneGap {
			l.lone = 0
		}
		l.idleSweeps, l.burst = 0, 0
	}
	l.burst += n
}

// park blocks the server on its notification word until the next Issue
// (or Stop) wakes it. The re-sweep after publishing the parked flag is
// the Dekker-style race closer: a client that issued before observing the
// flag is caught here; one that issues afterwards sees the flag and
// performs the wake. park returns the number of requests the re-sweep
// served: zero when the server blocked (or is stopping).
func (s *Server) park(retBuf *[GroupSize]uint64, seqBuf *[GroupSize]uint64, args *[MaxArgs]uint64, evBuf *[sweepEvCap]obs.Event) int {
	s.parked.Store(true)
	if served := s.sweep(retBuf, seqBuf, args, evBuf); served > 0 || s.stopping.Load() {
		// Work (or shutdown) arrived while the flag went up; retract
		// it. If a waker already CAS'd the flag down, consume its
		// token so a later park does not wake spuriously (a missed
		// drain here is harmless — it only causes one extra ladder
		// climb).
		if !s.parked.CompareAndSwap(true, false) {
			select {
			case <-s.wake:
			default:
			}
		}
		return served
	}
	s.nIdleParks.Add(1)
	if tr := s.trace; tr != nil {
		tr.Event(obs.KindPark, -1, 0)
	}
	<-s.wake
	if tr := s.trace; tr != nil {
		tr.Event(obs.KindWake, -1, 0)
	}
	// Normally the waker's CAS already lowered the flag; a stale token
	// from a retracted park wakes us with it still raised. Lower it
	// unconditionally — the server is the only goroutine that raises it.
	s.parked.Store(false)
	return 0
}

// call executes one delegated function, converting a panic into the
// all-ones sentinel: one client's broken function must not take down the
// server and hang every other client. The panic payload is captured as a
// PanicRecord — published globally (Stats.LastPanic) and per slot, where
// the per-slot store precedes the response flush so the issuing client's
// DelegateErr/DelegateTimeout can distinguish a panic from a genuine
// all-ones return. The fault hook runs inside this recovery scope, so an
// injected panic takes the same path as a real one.
func (s *Server) call(f Func, args *[MaxArgs]uint64, fid FuncID, slot int, op uint64) (ret uint64) {
	defer func() {
		if r := recover(); r != nil {
			rec := &PanicRecord{Msg: fmt.Sprint(r), FID: fid, HasFID: true, Op: op}
			s.lastPanic.Store(rec)
			s.slotPanic[slot].Store(rec)
			s.nPanics.Add(1)
			ret = ^uint64(0)
		}
	}()
	if h := s.hooks; h != nil {
		h.Call(uint64(fid), op)
	}
	return f(args)
}

// sweep performs one full polling pass and returns the number of requests
// served. It touches only the request lines of occupied slots: one
// atomic occupancy-mask load per active group replaces the per-slot
// header loads for empty slots, and groups past the active high-water
// mark are skipped without any load at all.
//
// The per-operation costs are write-combined into the group flush: return
// values and ledger entries accumulate in retBuf/seqBuf while the group's
// requests execute, and one pass over the served bits stores the ledger
// records and response words before the single release store of the
// toggle word publishes the whole response line — one cache-line
// transfer, one ledger pass, and (traced) one ring append per group per
// sweep, regardless of how many requests the group batched.
func (s *Server) sweep(retBuf *[GroupSize]uint64, seqBuf *[GroupSize]uint64, args *[MaxArgs]uint64, evBuf *[sweepEvCap]obs.Event) int {
	funcs := *s.funcs.Load()
	served := 0
	// h gates the fault points; with h nil (the default) the per-request
	// cost is one predictable not-taken branch. opBase + served is the
	// global zero-based index of the request being served, used by the
	// fault points and panic records.
	h := s.hooks
	if h != nil {
		h.Sweep(s.nSweeps.Load())
	}
	// tr gates the lifecycle-event sites the same way; events accumulate
	// in evBuf and reach the ring in one append per group flush. The
	// sweep-start event is recorded lazily, only for sweeps that serve at
	// least one request — an idle server polling millions of empty sweeps
	// would otherwise flood the trace with nothing.
	tr := s.trace
	evn := 0
	// batches accumulates response-line flushes locally; one counter add
	// per sweep instead of one per group.
	batches := uint64(0)
	opBase := s.nRequests.Load()
	active := int(s.activeGroups.Load())
	// Trailing groups beyond the high-water mark are skipped wholesale,
	// without even loading their occupancy word.
	skipped := (s.nGroups - active) * GroupSize
	for g := 0; g < active; g++ {
		occ := atomic.LoadUint64(&s.occ[g])
		if occ == 0 {
			skipped += GroupSize
			continue
		}
		skipped += GroupSize - bits.OnesCount64(occ)
		respBase := g * respWords
		reqBase := g * GroupSize * reqWords
		slotBase := g * GroupSize
		toggles := s.resp[respBase] // our own last store; plain read OK
		groupServed := uint64(0)
		for rest := occ; rest != 0; rest &= rest - 1 {
			m := bits.TrailingZeros64(rest)
			base := reqBase + m*reqWords
			hdr := atomic.LoadUint64(&s.req[base])
			if (hdr^(toggles>>uint(m)))&hdrToggleBit == 0 {
				continue // no new request (or slot never seeded)
			}
			// New request: decode, fence against duplicate delivery,
			// and execute. The sequence word is read plainly, ordered
			// (like the argument words) by the acquiring header load
			// above.
			slot := slotBase + m
			seq := s.req[base+reqSeqWord]
			// replay: a previous server generation applied this request
			// and crashed before flushing the response (the toggle still
			// differs).
			replay := seq != 0 && s.ledger[slot].seq == seq
			if w := s.win[slot]; w != nil && !replay {
				// Submit order. A window's requests execute in the order
				// they were submitted: one that is not the cursor's waits
				// for a later sweep. A replay was counted when it first
				// ran, so it neither consults nor moves the cursor.
				if w.slots[w.cur] != slot {
					continue
				}
				if w.cur++; w.cur == len(w.slots) {
					w.cur = 0
				}
			}
			if tr != nil {
				ts := tr.Now()
				if served == 0 {
					evBuf[evn] = obs.Event{TS: ts, Kind: obs.KindSweepStart, Slot: -1, Arg: s.nSweeps.Load()}
					evn++
				}
				evBuf[evn] = obs.Event{TS: ts, Kind: obs.KindExecute, Slot: int32(slot), Arg: seq}
				evn++
			}
			var ret uint64
			if replay {
				// Duplicate delivery: answer with the recorded return
				// value instead of re-executing — the exactly-once
				// fence for non-idempotent ops.
				ret = s.ledger[slot].ret
				s.nLedgerSkips.Add(1)
			} else {
				// aw aliases the argument words; reading them plainly
				// is ordered by the acquiring header load above.
				aw := s.req[base+1 : base+1+MaxArgs : base+1+MaxArgs]
				argc := int(hdr&hdrArgcMask) >> hdrArgcShift
				if argc == MaxArgs {
					// Full-arity fast path: copy the whole line, no
					// tail zeroing.
					args[0], args[1], args[2] = aw[0], aw[1], aw[2]
					args[3], args[4], args[5] = aw[3], aw[4], aw[5]
				} else {
					for a := 0; a < argc; a++ {
						args[a] = aw[a]
					}
					// Zero the tail so a function reading beyond argc
					// sees zeroes, not a previous request's arguments.
					for a := argc; a < MaxArgs; a++ {
						args[a] = 0
					}
				}
				fid := hdr >> hdrFuncShift
			dispatch:
				if int(fid) < len(funcs) {
					ret = s.call(funcs[fid], args, FuncID(fid), slot, opBase+uint64(served))
				} else if fresh := *s.funcs.Load(); len(fresh) > len(funcs) {
					// Registered since this sweep took its snapshot (the
					// registration happens-before the request's header
					// store): look again.
					funcs = fresh
					goto dispatch
				} else {
					// Unknown function: all-ones sentinel, plus a
					// queryable record so DelegateErr can report it.
					ret = ^uint64(0)
					rec := &PanicRecord{
						Msg: "unknown function id", FID: FuncID(fid),
						HasFID: true, Op: opBase + uint64(served),
					}
					s.lastPanic.Store(rec)
					s.slotPanic[slot].Store(rec)
				}
				if h != nil {
					// Chaos runs pin the exactly-once window precisely:
					// the applied record must land before the injected-
					// kill fault point, so a kill that loses the group's
					// response flush can never lose the ledger entry.
					// Production runs (h == nil) amortize these stores
					// into the group flush below instead.
					s.ledger[slot] = ledgerEntry{seq: seq, ret: ret}
					if h.Kill(opBase + uint64(served)) {
						// Injected server death: the executed request's
						// response is lost unflushed (re-delivered after a
						// restart, then answered from the ledger) — the
						// most chaotic crash point.
						panic(fmt.Sprintf("fault: server killed at op %d", opBase+uint64(served)))
					}
				}
			}
			bit := uint64(1) << uint(m)
			retBuf[m] = ret
			seqBuf[m] = seq
			groupServed |= bit
			served++
		}
		if groupServed != 0 {
			// Write-combined flush: walk only the served bits, store the
			// group's ledger entries and return values, then publish the
			// whole line with a single release store of the toggle word —
			// the paper's single-invalidation batch, now also carrying
			// the ledger pass. The ledger stores precede the toggle
			// publication, so a crash that loses the flushed responses
			// (the toggle never landed) cannot lose an applied record.
			// Under chaos hooks the entries were already stored per op,
			// ahead of the kill fault point.
			if h == nil {
				for rest := groupServed; rest != 0; rest &= rest - 1 {
					m := bits.TrailingZeros64(rest)
					s.ledger[slotBase+m] = ledgerEntry{seq: seqBuf[m], ret: retBuf[m]}
				}
			}
			for rest := groupServed; rest != 0; rest &= rest - 1 {
				m := bits.TrailingZeros64(rest)
				s.resp[respBase+1+m] = retBuf[m]
			}
			// Respond events, one per served slot, are stamped before the
			// toggle store that makes the group's responses visible, so a
			// client's completion stamp can never precede them. They
			// genuinely share one publication instant, so they share one
			// timestamp and, once the line is published, the group's whole
			// event run is appended in a single ring cursor bump.
			if tr != nil {
				ts := tr.Now()
				for rest := groupServed; rest != 0; rest &= rest - 1 {
					m := bits.TrailingZeros64(rest)
					evBuf[evn] = obs.Event{TS: ts, Kind: obs.KindRespond, Slot: int32(slotBase + m), Arg: seqBuf[m]}
					evn++
				}
			}
			// The served count is published before the toggle store, so
			// a client holding a response never reads a Requests count
			// that omits it. The server is the counter's only writer.
			s.nRequests.Store(opBase + uint64(served))
			atomic.StoreUint64(&s.resp[respBase], toggles^groupServed)
			batches++
			if tr != nil {
				tr.EventBatch(evBuf[:evn])
				evn = 0
			}
		}
	}
	s.nSweeps.Add(1)
	if batches > 0 {
		s.nBatches.Add(batches)
	}
	if skipped > 0 {
		s.nSlotsSkipped.Add(uint64(skipped))
	}
	return served
}
