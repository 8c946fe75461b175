package apps

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/core"
	"ffwd/internal/expiry"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
	"ffwd/internal/reptrans"
)

// This file is the replicated flavor of the memcached port: a KVStore
// served through a ffwd delegation server whose writes run through an
// internal/replica group, so a hard kill of the whole leader — server
// goroutine, slots, per-slot ledger and all — loses no acknowledged
// write. The core server's per-slot seq ledger still fences crash
// re-deliveries within one leader generation; the replica layer's
// (clientID, seq) ledger extends exactly-once across promotion, where
// the slot state does not survive.

// Peek looks up key without promoting it in the LRU order or touching
// the hit/miss counters — the deterministic read used by replicated
// shards. Only logged writes may mutate replica state: if reads promoted
// entries, the leader's LRU order (and therefore its future evictions)
// would silently diverge from its followers', and a failover would
// surface the divergence as lost or resurrected keys.
func (s *KVStore) Peek(key uint64) (uint64, bool) {
	_, e := s.index.find(key)
	if e == nil {
		return 0, false
	}
	return e.value, true
}

// EncodeState serializes the store for a replica snapshot: an entry
// count and the logical clock, followed by (key, value, expiresAt, seg)
// quadruples — probationary segment first, then protected, each from
// least to most recent — so RestoreState rebuilds not just the entries
// but the exact eviction order, segment membership, and timer-wheel index.
func (s *KVStore) EncodeState() []byte {
	buf := make([]byte, 0, 16+32*s.index.n)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	put(uint64(s.index.n))
	put(s.clock)
	s.lru.Each(func(n *expiry.Node, protected bool) {
		_, e := s.index.find(n.Key)
		put(n.Key)
		put(e.value)
		put(n.Deadline())
		if protected {
			put(1)
		} else {
			put(0)
		}
	})
	return buf
}

// RestoreState replaces the store's contents with an EncodeState image.
// The observability counters (hits/misses/evictions/expired) reset: they
// are per-replica local color, not replicated state.
func (s *KVStore) RestoreState(data []byte) {
	s.reset()
	if len(data) < 16 {
		return
	}
	n := binary.LittleEndian.Uint64(data)
	s.clock = binary.LittleEndian.Uint64(data[8:])
	off := 16
	for i := uint64(0); i < n && off+32 <= len(data); i++ {
		key := binary.LittleEndian.Uint64(data[off:])
		val := binary.LittleEndian.Uint64(data[off+8:])
		deadline := binary.LittleEndian.Uint64(data[off+16:])
		protected := binary.LittleEndian.Uint64(data[off+24:]) == 1
		off += 32
		e := s.insert(key, val, deadline)
		if protected {
			// Encoded LRU→MRU, so touching in encode order reproduces
			// the protected segment's exact recency order.
			s.lru.Touch(&e.node)
		}
	}
}

// kvMachine adapts a KVStore to replica.StateMachine. Applies are
// deterministic because reads go through Peek and never mutate.
type kvMachine struct {
	s *KVStore
}

func (m *kvMachine) Apply(e replica.Entry) uint64 {
	switch e.Kind {
	case replica.OpSet:
		m.s.Set(e.Key, e.Val)
		return 0
	case replica.OpDel:
		if m.s.Delete(e.Key) {
			return 1
		}
		return 0
	}
	return kvMissSentinel
}

func (m *kvMachine) Snapshot() []byte    { return m.s.EncodeState() }
func (m *kvMachine) Restore(data []byte) { m.s.RestoreState(data) }

// NewKVMachine builds the replicated-KV state machine over a fresh
// KVStore. Follower processes (ffwdserve -replica-member) use it so the
// machine applying shipped entries is byte-identical to the leader's.
func NewKVMachine(capacity int) replica.StateMachine {
	return &kvMachine{s: NewKVStore(capacity)}
}

// Response sentinels for the replicated delegated functions. They share
// the top of the value space with kvMissSentinel, so replicated stores
// confine values to < ^uint64(2). repPending is only ever a write's
// answer, whose applied results are 0 and 1.
const (
	repNotLeaderSentinel = ^uint64(1)
	repNoQuorumSentinel  = ^uint64(2)
	repPending           = ^uint64(3)
)

// ErrReplicatedDown reports that a replicated op exhausted its retries
// without reaching a committed answer.
var ErrReplicatedDown = errors.New("apps: replicated KV unavailable (retries exhausted)")

// The replicated delegated functions are registered in the same order on
// every leader generation, so their FuncIDs are stable constants and
// clients need no synchronization to name them across failovers.
const (
	rfidGet core.FuncID = iota
	rfidWrite
	rfidLen
	rfidCommit
)

// ReplicatedConfig parameterizes a ReplicatedKV.
type ReplicatedConfig struct {
	// Replicas is the group size (default 3; 1 degenerates to an
	// unreplicated delegated store with extra steps).
	Replicas int
	// SnapshotEvery is the applied-entry cadence of replica snapshots
	// (default: replica layer's 64).
	SnapshotEvery uint64
	// Core is the delegation-server template for each leader
	// generation. Its Hooks injector is shared across generations, so a
	// seeded kill plan spans failovers.
	Core core.Config
	// Supervisor configures each generation's supervisor (interval,
	// kick threshold). OnCrash is owned by the ReplicatedKV.
	Supervisor core.SupervisorConfig
	// Hooks injects replication faults (partitions, slow followers).
	Hooks replica.Hooks

	// DataDir, when set, selects durable pinned-leader mode: the leader
	// logs through a replog store in this directory and replicates to
	// the remote follower processes named by Peers. In-process replicas
	// are forced to 1 (the leader itself); quorum spans the leader plus
	// the remote followers.
	DataDir string
	// Fsync is the WAL sync policy in durable mode: "always" (default),
	// "batch", or "none".
	Fsync string
	// Peers are follower transport addresses (host:port) dialed with
	// reconnect/backoff in durable mode.
	Peers []string
}

// ReplicatedKV is a replica group of KVStores fronted by a delegation
// server on the current leader. When the leader's server goroutine dies,
// the supervisor hands the crash to the group: a follower is promoted
// and a fresh delegation server is built on it; clients re-resolve their
// handles by leadership epoch and retry, deduplicated by the replicated
// ledger.
type ReplicatedKV struct {
	g   *replica.Group
	cfg ReplicatedConfig

	// Durable pinned-leader mode (cfg.DataDir set): the WAL/snapshot
	// store, the remote follower peers, and the pinned flag that routes
	// failover to a same-leader rebuild instead of promotion.
	pinned bool
	store  *replog.Store
	peers  []*reptrans.Peer

	// mu guards the leader generation (srv/sv/epoch) across failover
	// rebuilds and Stop.
	mu     sync.Mutex
	srv    *core.Server
	sv     *core.Supervisor
	epoch  uint64
	closed bool

	// closeCh is closed by Stop so client retry backoffs unblock
	// promptly instead of sleeping out their budget against a shard
	// that is gone for good.
	closeCh chan struct{}

	nextClientID atomic.Uint64

	// runs holds every live handle's write-run buffer by client ID: the
	// delegated write function finds the batch it was asked to commit
	// here, because a request carries six words, not a batch. A handle
	// that gives up on a batch drops its entry (see RKVClient.retire), so
	// a request of its still sitting in a slot finds nothing to read.
	runMu sync.Mutex
	runs  map[uint64]*writeRun
}

// writeRun is one handle's batch buffer. The handle fills ws before it
// delegates and leaves it alone until that delegation is answered, so
// the server goroutine reads it race-free in between. The write call
// leaves the run's Pending in p for the handle's quorum wait and the
// commit call that follows it.
type writeRun struct {
	ws []replica.Write
	p  replica.Pending
}

func (r *ReplicatedKV) run(clientID uint64) *writeRun {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	return r.runs[clientID]
}

// NewReplicatedKV builds the group (capacity entries per replica) and
// its first leader generation; call Start to begin serving.
//
// With cfg.DataDir set the group runs in durable pinned-leader mode:
// the leader recovers its log and snapshot from disk, its term is the
// persisted boot counter, and quorum spans the leader plus the remote
// followers in cfg.Peers. Leadership is pinned — a delegation-server
// crash rebuilds on the same (only) local replica rather than promoting.
func NewReplicatedKV(capacity int, cfg ReplicatedConfig) (*ReplicatedKV, error) {
	if cfg.DataDir != "" {
		return newDurableKV(capacity, cfg)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	r := &ReplicatedKV{cfg: cfg, closeCh: make(chan struct{}), runs: make(map[uint64]*writeRun)}
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:      cfg.Replicas,
		SnapshotEvery: cfg.SnapshotEvery,
		Hooks:         cfg.Hooks,
		Trace:         cfg.Core.Trace,
		NewMachine: func() replica.StateMachine {
			return &kvMachine{s: NewKVStore(capacity)}
		},
	})
	if err != nil {
		return nil, err
	}
	r.g = g
	return r, nil
}

// newDurableKV opens the on-disk store, builds transport peers for the
// remote followers against a late-bound leader reference, and
// constructs a single-local-replica group whose term is the persisted
// boot counter. The boot counter was already bumped by replog.Open, so
// every process lifetime is a distinct term and followers fence stale
// sessions from a previous incarnation.
func newDurableKV(capacity int, cfg ReplicatedConfig) (*ReplicatedKV, error) {
	if cfg.Fsync == "" {
		cfg.Fsync = "always"
	}
	pol, err := replog.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	// The kill-9 chaos harness arms deterministic crash points through
	// the environment; they fire on the leader's own WAL writes and
	// snapshot installs exactly as on a follower's.
	crash, err := replog.CrashFromEnv()
	if err != nil {
		return nil, err
	}
	st, rec, err := replog.Open(cfg.DataDir, replog.Options{Sync: pol, Crash: crash})
	if err != nil {
		return nil, err
	}
	r := &ReplicatedKV{cfg: cfg, pinned: true, store: st, closeCh: make(chan struct{}), runs: make(map[uint64]*writeRun)}
	// Client IDs key the replicated exactly-once ledger, and the ledger
	// is recovered from disk: if a restarted process handed out the same
	// IDs as its previous incarnation, a new client's first writes would
	// collide with the dead client's recovered seqs and be fenced as
	// duplicates at apply time — acked writes silently dropped. Seeding
	// the allocator with the boot counter puts every process lifetime in
	// its own client-ID namespace.
	r.nextClientID.Store(rec.Meta.Boots << 32)
	ref := &reptrans.LeaderRef{InitialTerm: rec.Meta.Boots}
	remotes := make([]replica.Remote, 0, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		p := reptrans.NewPeer(reptrans.PeerConfig{
			ID:     100 + i,
			Addr:   addr,
			Leader: ref,
			Seed:   uint64(i + 1),
		})
		r.peers = append(r.peers, p)
		remotes = append(remotes, p)
	}
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:      1,
		SnapshotEvery: cfg.SnapshotEvery,
		Hooks:         cfg.Hooks,
		Trace:         cfg.Core.Trace,
		NewMachine: func() replica.StateMachine {
			return &kvMachine{s: NewKVStore(capacity)}
		},
		Storage:   st,
		Recovered: &replica.RecoveredLeader{Snap: rec.Snap, Entries: rec.Entries},
		Term:      rec.Meta.Boots,
		Remotes:   remotes,
	})
	if err != nil {
		for _, p := range r.peers {
			p.Close()
		}
		st.Close()
		return nil, err
	}
	r.g = g
	ref.Set(g)
	return r, nil
}

// Start builds and launches the first leader generation.
func (r *ReplicatedKV) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	lead, ep := r.g.Leader()
	return r.buildLeaderLocked(lead, ep)
}

// buildLeaderLocked constructs a delegation server + supervisor bound to
// the given leader replica and publishes it as generation epoch. The
// delegated functions capture the replica; a run of writes appends
// through the group as one batch and, once its handle has waited out the
// remote quorum, commits in a second call; every read is leader-local
// through Peek. None of them waits on a remote.
func (r *ReplicatedKV) buildLeaderLocked(rep *replica.Replica, epoch uint64) error {
	g := r.g
	srv := core.NewServer(r.cfg.Core)
	fidGet := srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		if !g.IsLeader(rep) {
			return repNotLeaderSentinel
		}
		v, ok := rep.SM().(*kvMachine).s.Peek(a[0])
		if !ok {
			return kvMissSentinel
		}
		return v
	})
	// (clientID, firstSeq, n): append the first n writes of the client's
	// run buffer as one batch. A missing buffer means the handle gave up
	// on this request; nobody is waiting for the answer.
	fidWrite := srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		run := r.run(a[0])
		if run == nil {
			return repNotLeaderSentinel
		}
		ret, p, err := g.Append(rep, a[0], a[1], run.ws[:a[2]])
		if err == nil && p.Need > 0 {
			run.p = p
			return repPending
		}
		return proposeRet(ret, err)
	})
	fidLen := srv.Register(func(*[core.MaxArgs]uint64) uint64 {
		if !g.IsLeader(rep) {
			return repNotLeaderSentinel
		}
		return uint64(rep.SM().(*kvMachine).s.Len())
	})
	// (clientID): commit the run the client's last write call left
	// pending.
	fidCommit := srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		run := r.run(a[0])
		if run == nil {
			return repNotLeaderSentinel
		}
		return proposeRet(g.Commit(rep, run.p))
	})
	if fidGet != rfidGet || fidWrite != rfidWrite || fidLen != rfidLen || fidCommit != rfidCommit {
		panic("apps: replicated FuncID registration order drifted")
	}
	if err := srv.Start(); err != nil {
		return err
	}
	sv := core.NewSupervisor(srv, core.SupervisorConfig{
		Interval:  r.cfg.Supervisor.Interval,
		KickAfter: r.cfg.Supervisor.KickAfter,
		OnCrash:   func() bool { return r.failover(epoch) },
	})
	sv.Start()
	r.srv, r.sv, r.epoch = srv, sv, epoch
	return nil
}

func proposeRet(ret uint64, err error) uint64 {
	switch {
	case err == nil:
		return ret
	case errors.Is(err, replica.ErrNoQuorum):
		return repNoQuorumSentinel
	default:
		return repNotLeaderSentinel
	}
}

// failover is the supervisor's OnCrash hand-off for generation
// fromEpoch: promote the most up-to-date follower and build the next
// generation on it. Returning true retires the calling supervisor (its
// server is gone for good); the crashed server is left dead — clients
// migrate by epoch. When promotion fails for lack of a quorum the shard
// is genuinely unavailable: the generation is torn down and clients keep
// erroring until an operator revives members (Group.Restart) and calls
// Reopen to re-run the election.
func (r *ReplicatedKV) failover(fromEpoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.epoch != fromEpoch {
		// Already torn down or already failed over past this
		// generation; nothing for this watcher to do.
		return true
	}
	if r.pinned {
		// Pinned leadership: the durable log and the remote quorum live
		// under this process, so a delegation-server crash rebuilds a
		// fresh generation on the same (only) local replica. The epoch
		// still advances so clients re-resolve their handles.
		lead, _ := r.g.Leader()
		if err := r.buildLeaderLocked(lead, r.epoch+1); err != nil {
			r.srv, r.sv = nil, nil
		}
		return true
	}
	cand, ep, err := r.g.Promote()
	if err != nil {
		r.srv, r.sv = nil, nil
		return true
	}
	if err := r.buildLeaderLocked(cand, ep); err != nil {
		r.srv, r.sv = nil, nil
		return true
	}
	return true
}

// Reopen rebuilds a serving generation after quorum loss took the shard
// down: once an operator has revived enough members (Group.Restart), it
// re-runs the election and builds a fresh leader generation. A shard
// that is closed or already serving is left alone.
func (r *ReplicatedKV) Reopen() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.srv != nil {
		return nil
	}
	if r.pinned {
		lead, _ := r.g.Leader()
		return r.buildLeaderLocked(lead, r.epoch+1)
	}
	// Reelect, not Promote: after a failed election took the shard down,
	// the deposed leader's replica state is still intact in this process
	// and may hold the only copy of acknowledged writes. The operator's
	// re-run must let it stand for election.
	cand, ep, err := r.g.Reelect()
	if err != nil {
		return err
	}
	return r.buildLeaderLocked(cand, ep)
}

// leaderGen returns the current generation's server and epoch (the
// server may be nil when the shard is down).
func (r *ReplicatedKV) leaderGen() (*core.Server, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv, r.epoch
}

// Group exposes the replica group for stats, chaos drivers, and tests.
func (r *ReplicatedKV) Group() *replica.Group { return r.g }

// Peers exposes the durable-mode transport peers (nil otherwise).
func (r *ReplicatedKV) Peers() []*reptrans.Peer { return r.peers }

// Store exposes the durable-mode WAL/snapshot store (nil otherwise).
func (r *ReplicatedKV) Store() *replog.Store { return r.store }

// Server exposes the current generation's delegation server (for stats;
// may be nil when the shard is down after quorum loss).
func (r *ReplicatedKV) Server() *core.Server {
	s, _ := r.leaderGen()
	return s
}

// Stop tears down the current generation. Safe against a concurrent
// failover: closed is published under the generation lock first, so no
// new generation can be built afterwards. In durable mode the transport
// peers and the on-disk store close after the server, so the final
// entries are flushed and the directory is reopenable.
func (r *ReplicatedKV) Stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.closeCh)
	sv, srv := r.sv, r.srv
	r.sv, r.srv = nil, nil
	r.mu.Unlock()
	if sv != nil {
		sv.Stop()
	}
	if srv != nil {
		srv.Stop()
	}
	for _, p := range r.peers {
		p.Close()
	}
	if r.store != nil {
		r.store.Close()
	}
}

// RKVPolicy bounds a replicated client's retry loop. An op is retried
// across timeouts, leader death, and failover until it commits or
// MaxAttempts is exhausted; write retries are deduplicated by the
// replicated ledger, so exhausting the budget is the only way a
// committed write's ack can be lost.
type RKVPolicy struct {
	// MaxAttempts is the total delegation attempts per op. Default 400.
	MaxAttempts int
	// PerTry bounds each delegation attempt. Default 25ms.
	PerTry time.Duration
	// BaseDelay/MaxDelay shape the backoff between attempts (doubling,
	// capped). Defaults 100µs / 2ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RKVPolicy) withDefaults() RKVPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 400
	}
	if p.PerTry <= 0 {
		p.PerTry = 25 * time.Millisecond
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Millisecond
	}
	return p
}

// RKVClient is a per-goroutine handle to a ReplicatedKV. It carries the
// client's replication identity: a group-unique clientID and a
// monotonic per-client write seq, which together key the replicated
// ledger's exactly-once dedup. The handle lazily re-binds to the
// current leader generation by epoch.
type RKVClient struct {
	r      *ReplicatedKV
	id     uint64
	seq    uint64
	run    *writeRun // this identity's batch buffer, registered in r.runs
	epoch  uint64
	c      *core.Client
	policy RKVPolicy
	w      replica.AckWaiter // the quorum wait of this handle's writes

	// cancel interrupts a retry backoff in flight when the handle is
	// closed from another goroutine.
	cancel     chan struct{}
	cancelOnce sync.Once
}

// NewClient returns a handle with the default retry policy.
func (r *ReplicatedKV) NewClient() *RKVClient {
	return r.NewClientPolicy(RKVPolicy{})
}

// NewClientPolicy returns a handle with an explicit retry policy.
func (r *ReplicatedKV) NewClientPolicy(p RKVPolicy) *RKVClient {
	k := &RKVClient{r: r, policy: p.withDefaults(), cancel: make(chan struct{})}
	k.enroll()
	return k
}

// enroll gives the handle a fresh replication identity and registers its
// run buffer under it.
func (k *RKVClient) enroll() {
	k.id, k.seq, k.run = k.r.nextClientID.Add(1), 0, &writeRun{}
	k.r.runMu.Lock()
	k.r.runs[k.id] = k.run
	k.r.runMu.Unlock()
}

// retire withdraws the handle's identity: its run buffer leaves the
// registry, so a request still parked in a delegation slot can no longer
// reach it.
func (k *RKVClient) retire() {
	k.r.runMu.Lock()
	delete(k.r.runs, k.id)
	k.r.runMu.Unlock()
}

// Close releases the handle's delegation slot (if bound) and interrupts
// any retry backoff the handle is sleeping through on another
// goroutine.
func (k *RKVClient) Close() {
	k.cancelOnce.Do(func() { close(k.cancel) })
	k.retire()
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// ensure binds the handle to the current leader generation, retiring a
// handle left over from a deposed one.
func (k *RKVClient) ensure() error {
	srv, ep := k.r.leaderGen()
	if srv == nil {
		return ErrReplicatedDown
	}
	if k.c != nil && k.epoch == ep {
		return nil
	}
	if k.c != nil {
		// The old generation's server is dead; Close retires or
		// reclaims the slot, whichever the drain protocol allows.
		k.c.Close()
		k.c = nil
	}
	c, err := srv.NewClient()
	if err != nil {
		return err
	}
	k.c, k.epoch = c, ep
	return nil
}

// do drives one op to a committed answer: bind to the leader, delegate
// with a bounded wait, and retry across timeouts, crashes, failovers,
// quorum failures and leadership sentinels with capped backoff. A write
// the server answers pending is one attempt of three steps: the append
// call, the remote quorum wait on this goroutine, the commit call. The
// backoff sleep is interruptible: closing the handle or stopping the
// shard returns ErrReplicatedDown immediately instead of sleeping out
// the remaining retry budget (at default policy, up to ~0.8s per stuck
// op).
func (k *RKVClient) do(fid core.FuncID, a0, a1, a2, a3 uint64, nargs int) (uint64, error) {
	var lastErr error = ErrReplicatedDown
	d := k.policy.BaseDelay
	for attempt := 0; attempt < k.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-k.r.closeCh:
				t.Stop()
				return 0, ErrReplicatedDown
			case <-k.cancel:
				t.Stop()
				return 0, ErrReplicatedDown
			}
			if d *= 2; d > k.policy.MaxDelay {
				d = k.policy.MaxDelay
			}
		}
		if err := k.ensure(); err != nil {
			lastErr = err
			continue
		}
		var ret uint64
		var err error
		switch nargs {
		case 0:
			ret, err = k.c.DelegateTimeout(k.policy.PerTry, fid)
		case 1:
			ret, err = k.c.DelegateTimeout(k.policy.PerTry, fid, a0)
		case 3:
			ret, err = k.c.DelegateTimeout(k.policy.PerTry, fid, a0, a1, a2)
		default:
			ret, err = k.c.DelegateTimeout(k.policy.PerTry, fid, a0, a1, a2, a3)
		}
		if err == nil && fid == rfidWrite && ret == repPending {
			ret, err = k.commit()
		}
		if err != nil {
			lastErr = err
			continue
		}
		switch ret {
		case repNotLeaderSentinel:
			lastErr = replica.ErrNotLeader
			continue
		case repNoQuorumSentinel:
			lastErr = replica.ErrNoQuorum
			continue
		}
		return ret, nil
	}
	return 0, lastErr
}

// commit finishes a write the server answered pending: wait for the
// remote quorum here, off the server goroutine, then commit the run. A
// failed wait is ErrNoQuorum; the retry reuses the run's seqs, and the
// ledger and the apply-time fence keep it exactly-once.
func (k *RKVClient) commit() (uint64, error) {
	if err := k.r.g.Await(&k.w, k.run.p); err != nil {
		return 0, err
	}
	return k.c.DelegateTimeout(k.policy.PerTry, rfidCommit, k.id)
}

// Get reads key from the leader (leader-local, not logged: promotion
// only follows leader death, so there is never a second live leader to
// serve stale reads).
func (k *RKVClient) Get(key uint64) (uint64, bool, error) {
	v, err := k.do(rfidGet, key, 0, 0, 0, 1)
	if err != nil {
		return 0, false, err
	}
	if v == kvMissSentinel {
		return 0, false, nil
	}
	return v, true, nil
}

// WriteBatch commits ws in order through the replicated log, as few
// quorum round trips as exactly-once allows: each run of writes up to and
// including the next OpDel is one group commit (one leader WAL write,
// one append frame per follower, one quorum wait) and, with remote
// followers, two delegated calls around the quorum wait. rets[i]
// receives ws[i]'s applied result — 0 for a set, 1/0 for a delete that
// did/did not find its key. It returns how many writes committed; on
// error the rest were not attempted, and the fate of the run that failed
// is unknown, exactly like a single failed write.
//
// A run ends at a delete because the replicated ledger keeps one result
// per client: a retried run can recover its last write's result from the
// ledger and a set's result is the constant 0, but a delete's result in
// the middle of a run would be gone (DESIGN.md, "What a retried batch
// returns"). Set values at or above repNoQuorumSentinel are rejected:
// the top three words of the value space are response sentinels.
func (k *RKVClient) WriteBatch(ws []replica.Write, rets []uint64) (int, error) {
	for done := 0; done < len(ws); {
		n := 0
		for n < len(ws)-done {
			w := ws[done+n]
			if w.Kind == replica.OpSet && w.Val >= repNoQuorumSentinel {
				panic("apps: value collides with replicated response sentinels")
			}
			if n++; w.Kind == replica.OpDel {
				break
			}
		}
		k.run.ws = append(k.run.ws[:0], ws[done:done+n]...)
		ret, err := k.do(rfidWrite, k.id, k.seq+1, uint64(n), 0, 3)
		if err != nil {
			// The request may still sit in a slot, and must never run
			// against a buffer refilled with later writes: take a new
			// identity (and with it a new buffer) for whatever comes next.
			k.retire()
			k.enroll()
			return done, err
		}
		k.seq += uint64(n)
		for i := 0; i < n-1; i++ {
			rets[done+i] = 0
		}
		rets[done+n-1] = ret
		done += n
	}
	return len(ws), nil
}

// Set writes key=value through the replicated log.
func (k *RKVClient) Set(key, value uint64) error {
	var ret [1]uint64
	_, err := k.WriteBatch([]replica.Write{{Kind: replica.OpSet, Key: key, Val: value}}, ret[:])
	return err
}

// Delete removes key through the replicated log, reporting whether it
// was present.
func (k *RKVClient) Delete(key uint64) (bool, error) {
	var ret [1]uint64
	_, err := k.WriteBatch([]replica.Write{{Kind: replica.OpDel, Key: key}}, ret[:])
	return ret[0] == 1, err
}

// Len returns the leader's entry count.
func (k *RKVClient) Len() (int, error) {
	v, err := k.do(rfidLen, 0, 0, 0, 0, 0)
	if err != nil {
		return 0, err
	}
	return int(v), nil
}
