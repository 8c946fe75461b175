package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/obs"
)

// Remote is a cross-process follower as the leader sees it, satisfied
// structurally by reptrans.Peer. Implementations own their replication
// progress (next/match index, reconnect, retries); the Group only asks
// for outcomes.
type Remote interface {
	// ID returns the remote's stable member id (disjoint from in-process
	// member indices by convention; used only for reporting).
	ID() int
	// Replicate asks the remote to hold the leader's log durably through
	// index, carrying the current commit cursor. Exactly one RemoteAck is
	// delivered to done — OK when the remote durably matched at least
	// index, not-OK when it definitively cannot right now (disconnected,
	// timed out). Replicate runs on the waiting caller's goroutine and
	// may block while the link is busy; the ack send must not: done
	// always has room for one ack per remote.
	Replicate(index, commit uint64, done chan<- RemoteAck)
	// Healthy reports whether the link is currently usable (connected
	// and inside its heartbeat window). Stats only; Replicate is the
	// authority on whether an append lands.
	Healthy() bool
}

// RemoteAck is a remote follower's answer to one Replicate call.
type RemoteAck struct {
	ID    int
	Index uint64 // highest durably matched index; valid when OK
	OK    bool
}

// RecoveredLeader is the durable image a pinned leader resumes from
// (what replog.Open recovered, minus the storage-specific fields).
type RecoveredLeader struct {
	Snap    *Snapshot
	Entries []Entry
}

// GroupConfig configures a replica group.
type GroupConfig struct {
	// Replicas is the in-process member count including the leader.
	// Quorum is a majority of Replicas+len(Remotes); 3 in-process members
	// is the original single-process shape, 1 plus two Remotes the
	// cross-process one, and a bare 1 degenerates to unreplicated
	// delegation.
	Replicas int
	// SnapshotEvery is how many applied entries a replica accumulates
	// beyond its snapshot boundary before taking a new snapshot and
	// truncating the log prefix. 0 selects the size-driven rule (see
	// Member.snapshotDue): snapshot once the live log outweighs the last
	// snapshot image, and never before 64 entries.
	SnapshotEvery uint64
	// NewMachine builds one member's state machine instance. Called once
	// per member at construction and again when a wiped member restarts.
	NewMachine func() StateMachine
	// Hooks injects replication faults (partitions, slow followers).
	// Nil disables injection.
	Hooks Hooks
	// Trace receives KindFailover events on promotion. Nil disables.
	Trace obs.Tracer

	// Storage, when non-nil, durably backs the leader member (member 0),
	// which then runs in pinned-leader mode: it recovers from Recovered,
	// commits its entire durable log (safe — leadership is pinned to this
	// process, so no conflicting entry can ever have committed anywhere
	// else), and never cedes leadership to an in-process member.
	Storage Storage
	// Recovered is the durable image to resume the leader from. Only
	// read when Storage is set.
	Recovered *RecoveredLeader
	// Term forces the initial term. Pinned-leader mode passes the
	// persisted boot counter so every process lifetime is a fresh term
	// and stale followers from the previous life are fenced. 0 means 1.
	Term uint64
	// Remotes are cross-process followers counted toward quorum.
	Remotes []Remote
	// AckTimeout bounds how long Await waits for remote quorum acks
	// (default 2s). On expiry it fails with ErrNoQuorum; the batch stays
	// in the log and may commit later, exactly like an in-process quorum
	// failure.
	AckTimeout time.Duration
}

// Stats is a point-in-time counter snapshot of a group.
type Stats struct {
	Term          uint64
	Epoch         uint64
	LeaderID      int
	Replicas      int // total membership: in-process + remote
	AliveReplicas int // live in-process members + healthy remotes
	CommitIndex   uint64
	LastApplied   uint64
	LogBase       uint64
	LogLast       uint64

	Proposals        uint64 // ops entering Append
	Commits          uint64 // ops acknowledged after quorum commit
	LedgerHits       uint64 // retries answered from the replicated ledger
	ApplyDups        uint64 // duplicate entries fenced at apply time
	NoQuorum         uint64 // proposals that could not commit
	AppendAttempts   uint64 // leader→follower append RPC equivalents
	AppendDrops      uint64 // appends dropped by partition injection
	Snapshots        uint64 // snapshots taken across all members
	SnapshotInstalls uint64 // snapshot transfers into lagging members
	EntriesTruncated uint64 // log entries dropped by prefix truncation
	Failovers        uint64 // successful promotions
	Restarts         uint64 // wiped members revived
	RemoteAcks       uint64 // remote appends acked in time
	RemoteNacks      uint64 // remote appends refused or timed out
}

// Rows declares the counters the snapshot exports, once, for every stats
// sink (see obs.Registry).
func (s Stats) Rows() []obs.Row {
	return []obs.Row{
		{Name: "ffwd_replica_term", Key: "replica_term", Help: "Current replication term (elections so far + 1).", Value: float64(s.Term)},
		{Name: "ffwd_replica_leader", Key: "replica_leader", Help: "Member ID of the current leader.", Value: float64(s.LeaderID)},
		{Name: "ffwd_replicas_alive", Key: "replicas_alive", Help: "Group members currently alive.", Value: float64(s.AliveReplicas)},
		{Name: "ffwd_replicas", Key: "replicas", Help: "Group membership, in-process and remote.", Value: float64(s.Replicas)},
		{Name: "ffwd_replica_commit_index", Key: "replica_commit_index", Help: "Highest quorum-committed log index.", Value: float64(s.CommitIndex)},
		{Name: "ffwd_replica_log_len", Key: "replica_log_len", Help: "Log entries held since the last prefix truncation.", Value: float64(s.LogLast - s.LogBase)},
		{Name: "ffwd_replica_commits_total", Key: "replica_commits", Help: "Writes acknowledged after quorum commit.", Value: float64(s.Commits)},
		{Name: "ffwd_replica_no_quorum_total", Key: "replica_no_quorum", Help: "Proposals that could not commit.", Value: float64(s.NoQuorum)},
		{Name: "ffwd_replica_ledger_hits_total", Key: "replica_ledger_hits", Help: "Write retries answered from the replicated ledger without re-execution.", Value: float64(s.LedgerHits)},
		{Name: "ffwd_replica_apply_dups_total", Key: "replica_apply_dups", Help: "Duplicate log entries fenced at apply time by the replicated ledger.", Value: float64(s.ApplyDups)},
		{Name: "ffwd_replica_append_drops_total", Key: "replica_append_drops", Help: "Leader-to-follower appends dropped by partition injection.", Value: float64(s.AppendDrops)},
		{Name: "ffwd_replica_snapshots_total", Key: "replica_snapshots", Help: "Snapshots taken across all group members.", Value: float64(s.Snapshots)},
		{Name: "ffwd_replica_snapshot_installs_total", Key: "replica_snapshot_installs", Help: "Snapshot transfers into lagging or revived members.", Value: float64(s.SnapshotInstalls)},
		{Name: "ffwd_replica_log_truncated_total", Key: "replica_log_truncated", Help: "Log entries dropped by snapshot-backed prefix truncation.", Value: float64(s.EntriesTruncated)},
		{Name: "ffwd_replica_failovers_total", Key: "replica_failovers", Help: "Successful leader promotions after crashes.", Value: float64(s.Failovers)},
		{Name: "ffwd_replica_restarts_total", Key: "replica_restarts", Help: "Wiped members revived.", Value: float64(s.Restarts)},
	}
}

// Group is a replica set for one delegation shard. One mutex guards all
// member state; it is held only inside Append and Commit (which are
// already serialized by the leader's server goroutine), while remote
// transports build frames, and in failover-time operations, so it sees
// little contention in steady state. The quorum wait between Append and
// Commit holds no lock.
type Group struct {
	cfg        GroupConfig
	ackTimeout time.Duration

	mu        sync.Mutex
	members   []*Replica
	nextIndex []uint64 // leader's view: next log index to send to each member

	// leaderID/term/epoch are also mirrored in atomics so leader-local
	// reads and handle rebuilds can check leadership without the lock.
	leaderID atomic.Int32
	term     atomic.Uint64
	epoch    atomic.Uint64

	appendAttempts atomic.Uint64

	// ents is Append's scratch, reused so a committed batch allocates
	// nothing that grows with its size; w is the quorum wait of the
	// blocking ProposeBatch.
	ents []Entry
	w    AckWaiter

	nProposals   uint64
	nCommits     uint64
	nLedgerHits  uint64
	nNoQuorum    atomic.Uint64
	nAppendDrops uint64
	nFailovers   uint64
	nRestarts    uint64
	nRemoteAcks  atomic.Uint64
	nRemoteNacks atomic.Uint64
}

// NewGroup builds a group with cfg.Replicas in-process members, member 0
// leading. With cfg.Storage set, member 0 resumes from cfg.Recovered and
// commits its recovered log (pinned-leader mode).
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.NewMachine == nil {
		panic("replica: GroupConfig.NewMachine is required")
	}
	g := &Group{cfg: cfg, ackTimeout: cfg.AckTimeout}
	if g.ackTimeout <= 0 {
		g.ackTimeout = 2 * time.Second
	}
	g.members = make([]*Replica, cfg.Replicas)
	g.nextIndex = make([]uint64, cfg.Replicas)
	for i := range g.members {
		g.members[i] = &Replica{
			id: i,
			Member: Member{
				sm:            cfg.NewMachine(),
				ledger:        make(map[uint64]Applied),
				snapshotEvery: cfg.SnapshotEvery,
			},
		}
		g.nextIndex[i] = 1
	}
	if cfg.Term > 0 {
		g.term.Store(cfg.Term)
	} else {
		g.term.Store(1)
	}
	if cfg.Storage != nil {
		lead := g.members[0]
		lead.store = cfg.Storage
		if rec := cfg.Recovered; rec != nil {
			if err := lead.Recover(rec.Snap, rec.Entries); err != nil {
				return nil, err
			}
			// Pinned leadership makes the whole durable log committable:
			// no other process can ever have led this shard, so nothing
			// conflicting was ever acknowledged elsewhere.
			if err := lead.CommitTo(lead.log.Last()); err != nil {
				return nil, err
			}
		}
		if err := cfg.Storage.SaveTerm(g.term.Load()); err != nil {
			return nil, err
		}
		for i := range g.nextIndex {
			g.nextIndex[i] = lead.log.Last() + 1
		}
	}
	return g, nil
}

// Quorum returns the commit threshold: a majority of the full membership
// — in-process and remote, dead members still counting toward the
// denominator, as in raft.
func (g *Group) Quorum() int { return (g.cfg.Replicas+len(g.cfg.Remotes))/2 + 1 }

// Members returns the in-process member count.
func (g *Group) Members() int { return g.cfg.Replicas }

// Member returns in-process member i. The pointer is stable for the
// group's life; the state behind it is guarded by the group.
func (g *Group) Member(i int) *Replica { return g.members[i] }

// Leader returns the current leader replica and the leadership epoch.
// The epoch increments on every promotion; callers compare it to decide
// whether a cached handle is stale.
func (g *Group) Leader() (*Replica, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[g.leaderID.Load()], g.epoch.Load()
}

// IsLeader reports whether r currently leads, without taking the group
// lock. Leadership only moves off a replica after it is dead, so a true
// answer observed on r's own (live) server goroutine is stable.
func (g *Group) IsLeader(r *Replica) bool {
	return int(g.leaderID.Load()) == r.id
}

// Term returns the current leadership term.
func (g *Group) Term() uint64 { return g.term.Load() }

// Epoch returns the promotion epoch (0 until the first failover).
func (g *Group) Epoch() uint64 { return g.epoch.Load() }

// Write is one operation of a proposed batch.
type Write struct {
	Kind Op
	Key  uint64
	Val  uint64
}

// Propose runs one write through the replicated log: ProposeBatch of one.
func (g *Group) Propose(r *Replica, clientID, seq uint64, kind Op, key, val uint64) (uint64, error) {
	ws := [1]Write{{Kind: kind, Key: key, Val: val}}
	return g.ProposeBatch(r, clientID, seq, ws[:])
}

// ProposeBatch is the blocking composition of Append, Await and Commit
// for callers that may wait on the quorum themselves: it commits ws in
// one call. It waits on the group's own AckWaiter, so ProposeBatch
// callers must not overlap one another; Append and Commit calls from a
// server goroutine may interleave with it freely.
func (g *Group) ProposeBatch(r *Replica, clientID, firstSeq uint64, ws []Write) (uint64, error) {
	ret, p, err := g.Append(r, clientID, firstSeq, ws)
	if err != nil || p.Need == 0 {
		return ret, err
	}
	if err := g.Await(&g.w, p); err != nil {
		return 0, err
	}
	return g.Commit(r, p)
}

// Pending is a run that Append logged and shipped to the in-process
// members but that still needs remote acks to commit: Await collects
// them, then Commit commits it. Need is 0 when Append's result was
// final.
type Pending struct {
	Index uint64 // the run's last log index
	Need  int    // remote acks still needed for quorum

	term, commit      uint64 // the run's term; the commit cursor at append
	clientID, lastSeq uint64
	n                 uint64 // writes the run logged (its ledger hits excluded)
}

// Append logs ws — one client's writes carrying the consecutive seqs
// firstSeq, firstSeq+1, … — as one unit on behalf of leader r: dedup
// against the replicated ledger, one durable append of the whole batch,
// and the in-process appends. It must be called from the delegated
// function executing on r's server goroutine, so appends are serialized,
// and it never waits on a remote follower. Its result is final — a
// ledger hit, or an in-process quorum that committed inside Append —
// unless the returned Pending's Need is positive: then the caller waits
// for the quorum with Await on its own goroutine and finishes the run
// with Commit.
//
// The result is the applied result of the batch's last write — the one
// result the ledger (a single Applied cell per client) can reproduce
// when the batch is retried. A caller that needs every write's original
// result across retries must therefore end a batch at the first write
// whose result depends on state; see DESIGN.md, "What a retried batch
// returns".
//
// Exactly-once across timeout-retry, promotion and leader rebuild: a
// retried batch whose seq range the ledger has already passed is
// answered without re-execution, and one the ledger is inside of (a
// crash tore the batch on disk, and recovery committed the surviving
// prefix) skips exactly that applied prefix and proposes the rest.
func (g *Group) Append(r *Replica, clientID, firstSeq uint64, ws []Write) (uint64, Pending, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.dead || g.members[g.leaderID.Load()] != r {
		return 0, Pending{}, ErrNotLeader
	}
	n := uint64(len(ws))
	if n == 0 {
		return 0, Pending{}, nil
	}
	g.nProposals += n
	lastSeq := firstSeq + n - 1
	skip := uint64(0)
	if a, ok := r.ledger[clientID]; ok && a.Seq >= firstSeq {
		if a.Seq >= lastSeq {
			g.nLedgerHits += n
			return a.Ret, Pending{}, nil
		}
		skip = a.Seq - firstSeq + 1
		g.nLedgerHits += skip
	}
	next, term := r.log.Last()+1, g.term.Load()
	g.ents = g.ents[:0]
	for i, w := range ws[skip:] {
		g.ents = append(g.ents, Entry{
			Index:    next + uint64(i),
			Term:     term,
			ClientID: clientID,
			Seq:      firstSeq + skip + uint64(i),
			Kind:     w.Kind,
			Key:      w.Key,
			Val:      w.Val,
		})
	}
	// The leader's own copy is durable (fsynced per policy) before any
	// follower sees the batch: followers' logs then never run ahead of
	// the leader's durable log, which is what lets a recovered pinned
	// leader treat its WAL as authoritative.
	if err := r.AppendLeader(g.ents); err != nil {
		return 0, Pending{}, err
	}
	acks := 1 // the leader's own append
	for _, f := range g.members {
		if f != r && !f.dead && g.appendTo(r, f) {
			acks++
		}
	}
	p := Pending{
		Index: r.log.Last(), Need: g.Quorum() - acks,
		term: term, commit: r.commitIndex,
		clientID: clientID, lastSeq: lastSeq, n: n - skip,
	}
	if p.Need > len(g.cfg.Remotes) {
		// The batch stays in the log and may commit once a quorum heals;
		// the client retries, and apply-time fencing plus the ledger
		// keep the retry exactly-once either way.
		g.nNoQuorum.Add(1)
		return 0, Pending{}, ErrNoQuorum
	}
	if p.Need > 0 {
		return 0, p, nil
	}
	ret, err := g.commit(r, p)
	return ret, Pending{}, err
}

// AckWaiter is one waiting caller's quorum-wait state: the channel its
// remote acks land on, the count of acks still owed to that channel,
// and the wait's timer. The zero value is ready to use; one waiter
// serves one Await at a time and is reused from wait to wait.
type AckWaiter struct {
	acks  chan RemoteAck
	owed  int
	timer *time.Timer
}

// Await asks every remote follower to durably hold the log through
// p.Index and waits, on the caller's goroutine and holding no lock, until
// p.Need of them ack or the ack timeout expires. It fails with
// ErrNoQuorum when they do not; the run stays in the log, as in Append.
//
// The channel is reused only once every ack owed to it has come in (a
// wait that reached quorum early leaves the slower remotes' acks
// outstanding); otherwise it is left to the stragglers and a fresh one
// made, so a send into it can never block.
func (g *Group) Await(w *AckWaiter, p Pending) error {
	if p.Need <= 0 {
		return nil
	}
	remotes := g.cfg.Remotes
	for ; w.owed > 0 && len(w.acks) > 0; w.owed-- {
		<-w.acks // only this waiter receives, so a buffered ack is there
	}
	if w.acks == nil || w.owed > 0 {
		w.acks, w.owed = make(chan RemoteAck, len(remotes)), 0
	}
	for _, rm := range remotes {
		rm.Replicate(p.Index, p.commit, w.acks)
	}
	if w.timer == nil {
		w.timer = time.NewTimer(g.ackTimeout)
	} else {
		w.timer.Reset(g.ackTimeout)
	}
	acks, pending, timedOut := 0, len(remotes), false
	for acks < p.Need && pending > 0 && !timedOut {
		select {
		case a := <-w.acks:
			pending--
			if a.OK && a.Index >= p.Index {
				acks++
				g.nRemoteAcks.Add(1)
			} else {
				g.nRemoteNacks.Add(1)
			}
		case <-w.timer.C:
			g.nRemoteNacks.Add(uint64(pending))
			timedOut = true
		}
	}
	w.timer.Stop() // and, since Go 1.23, no stale tick survives it
	w.owed = pending
	if acks < p.Need {
		g.nNoQuorum.Add(1)
		return ErrNoQuorum
	}
	return nil
}

// Commit finishes a run whose quorum Await collected, on leader r's
// server goroutine: it moves the commit cursor through the run, applies,
// and answers the run from the ledger. The cursor only moves forward,
// and only over an entry of the current term; a run that a later one
// already committed just reads its answer.
func (g *Group) Commit(r *Replica, p Pending) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.dead || g.members[g.leaderID.Load()] != r {
		return 0, ErrNotLeader
	}
	return g.commit(r, p)
}

func (g *Group) commit(r *Replica, p Pending) (uint64, error) {
	if p.Index > r.commitIndex {
		if t, ok := r.log.TermAt(p.Index); !ok || t != p.term || t != g.term.Load() {
			return 0, ErrNotLeader
		}
		r.commitIndex = p.Index
		if err := r.applyCommitted(); err != nil {
			return 0, err
		}
		// Push the new commit index to in-process followers that hold
		// the leader's log through it, so a promoted follower has already
		// applied every acknowledged write — promotion then never needs a
		// catch-up round of its own. Remote followers get no frame of
		// their own for this: the cursor rides their next append frame
		// (FrameFor re-reads it) or, on an idle link, the transport's
		// heartbeat.
		for _, f := range g.members {
			if f != r && !f.dead && g.nextIndex[f.id] > r.commitIndex {
				if err := f.CommitTo(r.commitIndex); err != nil {
					return 0, err
				}
			}
		}
	}
	a, ok := r.ledger[p.clientID]
	if !ok || a.Seq < p.lastSeq {
		return 0, fmt.Errorf("replica: committed batch through %d not applied", p.Index)
	}
	g.nCommits += p.n
	return a.Ret, nil
}

// LeaderFrame is one append RPC's worth of leader state for a remote
// follower at a given next-index: the consistency-check point, the
// entry suffix (copied into the caller's buffer — safe to retain until
// that buffer is reused), the snapshot instead when the suffix starts
// inside truncated history, and the commit cursor.
type LeaderFrame struct {
	Term      uint64
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []Entry
	Snap      *Snapshot // non-nil: install this first, then Entries follow it
	Commit    uint64
}

// FrameFor builds the frame a remote follower needs given that its next
// expected index is ni, copying the entry suffix into buf[:0] (grown if
// it must be; nil is fine). Remote transports call this from their own
// goroutines, each with its own buffer; it takes the group lock.
func (g *Group) FrameFor(ni uint64, buf []Entry) LeaderFrame {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead := g.members[g.leaderID.Load()]
	if ni == 0 {
		ni = 1
	}
	fr := LeaderFrame{Term: g.term.Load(), Commit: lead.commitIndex}
	if ni <= lead.log.Base() {
		// The suffix starts inside truncated history: ship the snapshot,
		// then everything after it.
		fr.Snap = lead.snap
		ni = lead.snap.LastIndex + 1
	}
	fr.PrevIndex = ni - 1
	if t, ok := lead.log.TermAt(fr.PrevIndex); ok {
		fr.PrevTerm = t
	}
	// Copy: Log.TruncatePrefix shifts the backing array in place, so an
	// aliased suffix handed to another goroutine would be corrupted by
	// the next snapshot cycle.
	fr.Entries = append(buf[:0], lead.log.From(ni)...)
	return fr
}

// appendTo brings follower f up to date with leader l's log, returning
// whether f holds every leader entry afterwards. It runs the raft
// consistency check (previous index/term) with truncate-on-conflict and
// falls back to snapshot installation when f needs truncated history.
func (g *Group) appendTo(l, f *Replica) bool {
	n := g.appendAttempts.Add(1)
	if h := g.cfg.Hooks; h != nil {
		if h.DropAppend(f.id, n) {
			g.nAppendDrops++
			return false
		}
		h.SlowAppend(f.id, n)
	}
	ni := g.nextIndex[f.id]
	if ni == 0 {
		ni = 1
	}
	for {
		if ni <= l.log.Base() {
			// The suffix f needs starts inside the leader's truncated
			// prefix: fast-forward f from the snapshot, then ship the
			// remaining live suffix.
			if err := f.InstallSnap(l.snap); err != nil {
				return false
			}
			ni = l.snap.LastIndex + 1
		}
		prev := ni - 1
		prevTerm, ok := l.log.TermAt(prev)
		if !ok {
			panic("replica: leader lost term for its own log prefix")
		}
		match, hint, err := f.HandleAppend(prev, prevTerm, l.log.From(ni), l.commitIndex)
		if err != nil {
			return false
		}
		if match {
			g.nextIndex[f.id] = l.log.Last() + 1
			return true
		}
		ni = hint + 1
	}
}

// KillReplica marks member id dead: appends skip it and it cannot be
// promoted until revived with Restart. Killing the current leader is the
// first half of a failover; Promote is the second.
func (g *Group) KillReplica(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[id].dead = true
}

// Promote elects a new leader after the current one died: the most
// up-to-date live member by (last log term, last log index) wins, the
// term and epoch advance, and the winner applies any committed backlog
// before serving. It fails with ErrNoQuorum when fewer than a quorum of
// members are alive. Promote is idempotent: re-invoking it after a
// failed attempt (e.g. once a member was revived) retries the election.
func (g *Group) Promote() (*Replica, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.members[g.leaderID.Load()]
	old.dead = true // the caller observed the leader's death
	var cand *Replica
	alive := 0
	for _, m := range g.members {
		if m.dead {
			continue
		}
		alive++
		if cand == nil || moreUpToDate(m, cand) {
			cand = m
		}
	}
	if cand == nil || alive < g.Quorum() {
		return nil, 0, ErrNoQuorum
	}
	g.term.Add(1)
	g.leaderID.Store(int32(cand.id))
	// Every acknowledged write was commit-pushed to caught-up followers
	// before the client saw the ack, so the most up-to-date live member
	// has it at or below its commit index; applying the backlog makes
	// the new leader's ledger authoritative for retry dedup.
	if err := cand.applyCommitted(); err != nil {
		return nil, 0, err
	}
	for i := range g.nextIndex {
		g.nextIndex[i] = cand.log.Last() + 1
	}
	ep := g.epoch.Add(1)
	g.nFailovers++
	if tr := g.cfg.Trace; tr != nil {
		tr.Event(obs.KindFailover, -1, g.term.Load())
	}
	return cand, ep, nil
}

// Reelect re-runs a failed election with the deposed leader back on the
// ballot. Promote models the supervisor's view — the leader's server
// died, prefer a live follower — but an in-process member's replica
// state outlives its delegation server (state is lost only through
// Restart's wipe). So when promotion failed for lack of quorum and an
// operator has since revived members, the deposed leader's intact log
// may be the only copy of acknowledged writes; Reelect lets it win and
// revives it in place. The usual rules hold: most up-to-date member by
// (last log term, last log index) wins, term and epoch advance, quorum
// of candidates required.
func (g *Group) Reelect() (*Replica, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.members[g.leaderID.Load()]
	var cand *Replica
	alive := 0
	for _, m := range g.members {
		if m.dead && m != old {
			continue
		}
		alive++
		if cand == nil || moreUpToDate(m, cand) {
			cand = m
		}
	}
	if cand == nil || alive < g.Quorum() {
		return nil, 0, ErrNoQuorum
	}
	cand.dead = false
	g.term.Add(1)
	g.leaderID.Store(int32(cand.id))
	if err := cand.applyCommitted(); err != nil {
		return nil, 0, err
	}
	for i := range g.nextIndex {
		g.nextIndex[i] = cand.log.Last() + 1
	}
	ep := g.epoch.Add(1)
	g.nFailovers++
	if tr := g.cfg.Trace; tr != nil {
		tr.Event(obs.KindFailover, -1, g.term.Load())
	}
	return cand, ep, nil
}

// Restart revives dead member id with wiped state (the restarted-process
// model): an empty state machine, log, and ledger. The member catches up
// lazily on the next append — via snapshot-then-suffix when the leader
// has truncated history, via plain log replay otherwise. Restarting the
// member that still holds leadership is an error; promote first.
func (g *Group) Restart(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.members[id]
	if !r.dead {
		return fmt.Errorf("replica: member %d is alive", id)
	}
	if int32(id) == g.leaderID.Load() {
		return fmt.Errorf("replica: member %d still holds leadership; promote first", id)
	}
	r.Member = Member{
		sm:            g.cfg.NewMachine(),
		ledger:        make(map[uint64]Applied),
		snapshotEvery: g.cfg.SnapshotEvery,
	}
	r.dead = false
	g.nextIndex[id] = 1
	g.nRestarts++
	return nil
}

// Sync synchronously brings member id up to date from the current
// leader, outside any propose — the explicit catch-up used by tests and
// by operators after a Restart. It returns whether the member now holds
// the leader's full log. Injected faults (partitions, slow links) apply.
func (g *Group) Sync(id int) (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead := g.members[g.leaderID.Load()]
	if lead.dead {
		return false, ErrNotLeader
	}
	f := g.members[id]
	if f == lead {
		return true, nil
	}
	if f.dead {
		return false, ErrDead
	}
	return g.appendTo(lead, f), nil
}

// Stats returns a counter snapshot.
func (g *Group) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead := g.members[g.leaderID.Load()]
	alive := 0
	var dups, snaps, installs, truncated uint64
	for _, m := range g.members {
		if !m.dead {
			alive++
		}
		dups += m.counters.applyDups
		snaps += m.counters.snapshots
		installs += m.counters.snapshotInstalls
		truncated += m.counters.truncated
	}
	for _, p := range g.cfg.Remotes {
		if p.Healthy() {
			alive++
		}
	}
	return Stats{
		Term:             g.term.Load(),
		Epoch:            g.epoch.Load(),
		LeaderID:         lead.id,
		Replicas:         g.cfg.Replicas + len(g.cfg.Remotes),
		AliveReplicas:    alive,
		CommitIndex:      lead.commitIndex,
		LastApplied:      lead.lastApplied,
		LogBase:          lead.log.Base(),
		LogLast:          lead.log.Last(),
		Proposals:        g.nProposals,
		Commits:          g.nCommits,
		LedgerHits:       g.nLedgerHits,
		ApplyDups:        dups,
		NoQuorum:         g.nNoQuorum.Load(),
		AppendAttempts:   g.appendAttempts.Load(),
		AppendDrops:      g.nAppendDrops,
		Snapshots:        snaps,
		SnapshotInstalls: installs,
		EntriesTruncated: truncated,
		Failovers:        g.nFailovers,
		Restarts:         g.nRestarts,
		RemoteAcks:       g.nRemoteAcks.Load(),
		RemoteNacks:      g.nRemoteNacks.Load(),
	}
}

// moreUpToDate is raft's log-recency order: higher last term wins, then
// higher last index.
func moreUpToDate(a, b *Replica) bool {
	at, _ := a.log.TermAt(a.log.Last())
	bt, _ := b.log.TermAt(b.log.Last())
	if at != bt {
		return at > bt
	}
	return a.log.Last() > b.log.Last()
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
