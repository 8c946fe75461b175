package replica

// Storage is the durable backing for a member, satisfied structurally
// by replog.Store so this package needs no import of it. A nil Storage
// means a volatile member (the original in-process model).
//
// The contract mirrors the in-memory Log: every in-memory mutation is
// mirrored durably, so after any crash the store replays to exactly the
// member's log tail. AppendEntries is durable per the store's fsync
// policy; Sync forces outstanding appends down before an append is
// acknowledged.
type Storage interface {
	AppendEntries(ents []Entry) error
	TruncateSuffix(i uint64) error
	Compact(i uint64) error
	SaveSnapshot(snap *Snapshot) error
	InstallSnapshot(snap *Snapshot) error
	SaveTerm(term uint64) error
	Sync() error
	Close() error
}

// memberCounters are the per-member replication counters, folded into
// Group.Stats for in-process members and exposed directly by standalone
// (remote follower) members.
type memberCounters struct {
	applyDups        uint64
	snapshots        uint64
	snapshotInstalls uint64
	truncated        uint64
}

// Member is the follower half of a replica: the log suffix, state
// machine, replicated ledger, and apply cursors one process needs to
// participate in replication — whether it lives inside a Group (every
// in-process Replica embeds one) or alone in a follower process behind
// a transport. All methods assume external serialization: the Group's
// mutex in-process, the transport server's single handler goroutine
// cross-process.
type Member struct {
	sm            StateMachine
	log           Log
	ledger        map[uint64]Applied
	snap          *Snapshot // latest local snapshot; nil before the first
	commitIndex   uint64
	lastApplied   uint64
	store         Storage // nil = volatile member
	snapshotEvery uint64  // 0 = the size-driven rule, see snapshotDue
	counters      memberCounters
}

// NewMember builds a standalone member (a remote follower process's
// replication state). snapshotEvery means what GroupConfig.SnapshotEvery
// means: an explicit applied-entry cadence, or 0 for the size-driven
// rule — either way the member truncates its own log and WAL instead of
// keeping every entry it ever received.
func NewMember(sm StateMachine, snapshotEvery uint64, store Storage) *Member {
	return &Member{
		sm:            sm,
		ledger:        make(map[uint64]Applied),
		snapshotEvery: snapshotEvery,
		store:         store,
	}
}

// SM returns the member's state machine instance. Callers may only
// touch it from contexts already serialized with the member's owner.
func (m *Member) SM() StateMachine { return m.sm }

// LastIndex returns the highest log index present (snapshot or entry).
func (m *Member) LastIndex() uint64 { return m.log.Last() }

// LogLen returns the number of live (not yet snapshotted away) entries.
func (m *Member) LogLen() int { return m.log.Len() }

// Commit returns the member's commit cursor.
func (m *Member) Commit() uint64 { return m.commitIndex }

// AppliedIndex returns the member's apply cursor.
func (m *Member) AppliedIndex() uint64 { return m.lastApplied }

// Recover resumes the member from a durable image: the newest snapshot
// (nil if none) plus the contiguous WAL suffix after it. It only
// rebuilds in-memory state — the store already holds the image. Commit
// and apply cursors resume at the snapshot boundary; entries beyond it
// re-commit only when the leader says so (or, for a pinned leader
// recovering its own log, via CommitTo).
func (m *Member) Recover(snap *Snapshot, entries []Entry) error {
	if snap != nil {
		m.restoreSnapshot(snap)
	}
	for _, e := range entries {
		m.log.Append(e) // panics on a hole, which Open already rejects
	}
	return nil
}

// restoreSnapshot jumps the member's in-memory state to snap.
func (m *Member) restoreSnapshot(snap *Snapshot) {
	m.sm.Restore(snap.State)
	m.ledger = make(map[uint64]Applied, len(snap.Ledger))
	for k, v := range snap.Ledger {
		m.ledger[k] = v
	}
	m.log.Reset(snap.LastIndex, snap.LastTerm)
	m.lastApplied = snap.LastIndex
	if m.commitIndex < snap.LastIndex {
		m.commitIndex = snap.LastIndex
	}
	m.snap = snap
}

// InstallSnap fast-forwards the member to snap — the receiving side of
// a snapshot transfer — durably when a store is attached. Snapshots are
// immutable once taken, so the member shares the byte slice.
func (m *Member) InstallSnap(snap *Snapshot) error {
	if snap == nil {
		panic("replica: snapshot install with no snapshot taken")
	}
	m.restoreSnapshot(snap)
	m.counters.snapshotInstalls++
	if m.store != nil {
		return m.store.InstallSnapshot(snap)
	}
	return nil
}

// AppendLeader appends a batch of entries the member itself is proposing
// (it leads) — one storage append however many entries. The batch is
// durable — fsynced per policy — before return, because the leader ships
// to followers and acknowledges clients only after its own copy cannot
// be lost.
func (m *Member) AppendLeader(ents []Entry) error {
	for _, e := range ents {
		m.log.Append(e)
	}
	if m.store != nil && len(ents) > 0 {
		if err := m.store.AppendEntries(ents); err != nil {
			return err
		}
		return m.store.Sync()
	}
	return nil
}

// HandleAppend is the follower half of an append RPC: consistency-check
// prev, truncate conflicts, append the new suffix durably, and advance
// the commit cursor. It returns (matched, hint, err) where hint is the
// highest index the member can vouch for when matched is false. A
// non-nil err is a storage failure; the caller must not ack.
func (m *Member) HandleAppend(prevIndex, prevTerm uint64, ents []Entry, leaderCommit uint64) (bool, uint64, error) {
	if prevIndex > m.log.Last() {
		return false, m.log.Last(), nil
	}
	if prevIndex < m.log.Base() {
		// The snapshot already covers prev; everything at or below the
		// base is committed state, so report the base as matched.
		return false, m.log.Base(), nil
	}
	if prevIndex > m.log.Base() {
		if t, _ := m.log.TermAt(prevIndex); t != prevTerm {
			if err := m.truncateSuffix(prevIndex); err != nil {
				return false, 0, err
			}
			return false, m.log.Last(), nil
		}
	}
	first := uint64(0) // index of the first entry appended below; they are contiguous
	for _, e := range ents {
		if e.Index <= m.log.Base() {
			continue
		}
		if e.Index <= m.log.Last() {
			if t, _ := m.log.TermAt(e.Index); t == e.Term {
				continue
			}
			if err := m.truncateSuffix(e.Index); err != nil {
				return false, 0, err
			}
		}
		m.log.Append(e)
		if first == 0 {
			first = e.Index
		}
	}
	if m.store != nil && first != 0 {
		if err := m.store.AppendEntries(m.log.From(first)); err != nil {
			return false, 0, err
		}
		// Durable before the ack: this sync is what lets the leader count
		// this member toward quorum.
		if err := m.store.Sync(); err != nil {
			return false, 0, err
		}
	}
	if lc := minU64(leaderCommit, m.log.Last()); lc > m.commitIndex {
		m.commitIndex = lc
		if err := m.applyCommitted(); err != nil {
			return false, 0, err
		}
	}
	return true, m.log.Last(), nil
}

// truncateSuffix drops entries >= i from the log and its durable mirror.
func (m *Member) truncateSuffix(i uint64) error {
	m.log.TruncateSuffix(i)
	if m.store != nil {
		return m.store.TruncateSuffix(i)
	}
	return nil
}

// CommitTo advances the commit cursor to min(i, last log index) and
// applies the newly committed suffix. The pinned-leader recovery path
// uses it to commit the whole recovered log: with a pinned leader no
// other process can ever have committed a conflicting entry, so every
// durable entry is safe to commit (acknowledged entries must be, and
// unacknowledged ones are pending ops free to linearize here).
func (m *Member) CommitTo(i uint64) error {
	if last := m.log.Last(); i > last {
		i = last
	}
	if i <= m.commitIndex {
		return nil
	}
	m.commitIndex = i
	return m.applyCommitted()
}

// applyCommitted applies the committed-but-unapplied suffix, fencing
// duplicate (ClientID, Seq) entries so a retried op that snuck into the
// log twice executes exactly once, then takes a snapshot if due.
func (m *Member) applyCommitted() error {
	for m.lastApplied < m.commitIndex {
		i := m.lastApplied + 1
		e, ok := m.log.At(i)
		if !ok {
			panic("replica: committed index missing from log")
		}
		if a, ok := m.ledger[e.ClientID]; ok && a.Seq >= e.Seq {
			m.counters.applyDups++
		} else {
			ret := m.sm.Apply(e)
			m.ledger[e.ClientID] = Applied{Seq: e.Seq, Ret: ret}
		}
		m.lastApplied = i
	}
	return m.maybeSnapshot()
}

// Snapshot cadence when no explicit SnapshotEvery is configured. A
// snapshot rewrites the whole state image, so taking one every fixed few
// entries costs image/log bytes of write amplification (36x for a
// 4,096-key store at the old every-64 default). Waiting until the live
// log outweighs the last image bounds that at 2x, bounds what recovery
// replays at one image's worth of log, and still truncates a small
// store's log promptly.
const (
	snapshotFloor = 64 // never snapshot before this many applied entries
	// entryWeight is what one live entry costs to keep: its framed WAL
	// record (8-byte header + 49-byte payload; the in-memory Entry is 56).
	entryWeight = 57
)

// weight is the snapshot image's size in the same bytes entryWeight
// counts: the state encoding plus 24 bytes per ledger cell.
func (s *Snapshot) weight() uint64 {
	if s == nil {
		return 0
	}
	return uint64(len(s.State)) + 24*uint64(len(s.Ledger))
}

// snapshotDue reports whether the applied entries past the snapshot
// boundary warrant a new snapshot.
func (m *Member) snapshotDue() bool {
	n := m.lastApplied - m.log.Base()
	if m.snapshotEvery != 0 {
		return n >= m.snapshotEvery
	}
	return n >= snapshotFloor && n*entryWeight > m.snap.weight()
}

// maybeSnapshot takes a snapshot and truncates the applied log prefix
// once snapshotDue says so.
func (m *Member) maybeSnapshot() error {
	if !m.snapshotDue() {
		return nil
	}
	led := make(map[uint64]Applied, len(m.ledger))
	for k, v := range m.ledger {
		led[k] = v
	}
	lt, ok := m.log.TermAt(m.lastApplied)
	if !ok {
		panic("replica: snapshot boundary missing from log")
	}
	m.snap = &Snapshot{
		LastIndex: m.lastApplied,
		LastTerm:  lt,
		State:     m.sm.Snapshot(),
		Ledger:    led,
	}
	m.counters.snapshots++
	if m.store != nil {
		// Persist the snapshot before truncating anything: a crash between
		// the two leaves both the snapshot and the covered WAL prefix, and
		// recovery just drops the overlap.
		if err := m.store.SaveSnapshot(m.snap); err != nil {
			return err
		}
	}
	m.counters.truncated += uint64(m.log.TruncatePrefix(m.lastApplied, lt))
	if m.store != nil {
		return m.store.Compact(m.snap.LastIndex)
	}
	return nil
}
