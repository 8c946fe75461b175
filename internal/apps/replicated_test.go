package apps

import (
	"bytes"
	"slices"
	"strconv"
	"testing"
	"time"

	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/replica"
)

// rkvSeeds returns the seeds the replicated suites run under: the single
// FFWD_CHAOS_SEED if set (the `make replica-chaos` contract), otherwise
// the checked-in defaults.
func rkvSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds, err := fault.SeedsFromEnv(5, 9, 13)
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

// rkvStores returns every live member's KVStore for state comparison.
func rkvStores(r *ReplicatedKV) []*KVStore {
	g := r.Group()
	out := make([]*KVStore, g.Members())
	for i := 0; i < g.Members(); i++ {
		out[i] = g.Member(i).SM().(*kvMachine).s
	}
	return out
}

// TestReplicatedKVBasic: with no faults, the replicated store behaves
// like the plain delegated one — and every write lands on every member
// before the client's ack returns.
func TestReplicatedKVBasic(t *testing.T) {
	r, err := NewReplicatedKV(64, ReplicatedConfig{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	k := r.NewClient()
	defer k.Close()

	if err := k.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := k.Set(2, 20); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := k.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v,%v; want 10,true,nil", v, ok, err)
	}
	if _, ok, err := k.Get(99); err != nil || ok {
		t.Fatalf("Get(99) hit; want miss (err=%v)", err)
	}
	if present, err := k.Delete(1); err != nil || !present {
		t.Fatalf("Delete(1) = %v,%v; want true,nil", present, err)
	}
	if present, err := k.Delete(1); err != nil || present {
		t.Fatalf("second Delete(1) = %v,%v; want false,nil", present, err)
	}
	if n, err := k.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d,%v; want 1,nil", n, err)
	}

	st := r.Group().Stats()
	if st.Commits != 4 {
		t.Fatalf("Commits = %d, want 4 (2 sets + 2 deletes)", st.Commits)
	}
	// The acks above imply quorum, and the commit-push implies every
	// caught-up member applied: all three stores must agree byte for
	// byte (including LRU order).
	stores := rkvStores(r)
	want := stores[0].EncodeState()
	for i, s := range stores[1:] {
		if got := s.EncodeState(); !bytes.Equal(got, want) {
			t.Fatalf("member %d state diverged from member 0", i+1)
		}
		if v, ok := s.Peek(2); !ok || v != 20 {
			t.Fatalf("member %d missing replicated key 2", i+1)
		}
		if _, ok := s.Peek(1); ok {
			t.Fatalf("member %d resurrected deleted key 1", i+1)
		}
	}
}

// TestReplicatedFailoverLedgerAnswersRetry is the acceptance path, run
// deterministically per seed: a seeded kill fires after the leader
// executes and commits a known Set but before its response flushes
// ("mid-flush"); the supervisor hands the crash to the group, a follower
// is promoted, and the client's retried write must be answered from the
// replicated ledger — never re-executed.
func TestReplicatedFailoverLedgerAnswersRetry(t *testing.T) {
	for _, seed := range rkvSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			killAt := 3 + seed%5 // every op below is a Set, so the kill lands on Set #killAt
			inj := fault.New(fault.Plan{Seed: seed, KillAtOp: killAt})
			r, err := NewReplicatedKV(64, ReplicatedConfig{
				Replicas:   3,
				Core:       core.Config{MaxClients: 1, Hooks: inj},
				Supervisor: core.SupervisorConfig{Interval: 200 * time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			k := r.NewClientPolicy(RKVPolicy{PerTry: 2 * time.Millisecond})
			defer k.Close()

			nSets := killAt + 2 // a couple of post-failover writes ride on the new leader
			for i := uint64(1); i <= nSets; i++ {
				if err := k.Set(i, 100+i); err != nil {
					t.Fatalf("Set(%d): %v", i, err)
				}
			}

			st := r.Group().Stats()
			if c := inj.Counts().Kills; c != 1 {
				t.Fatalf("Kills = %d, want exactly 1", c)
			}
			if st.Failovers != 1 {
				t.Fatalf("Failovers = %d, want 1", st.Failovers)
			}
			if st.Term != 2 {
				t.Fatalf("Term = %d, want 2 after one election", st.Term)
			}
			if st.LedgerHits == 0 {
				t.Fatal("retry of the killed Set was not answered from the replicated ledger")
			}
			// Exactly-once: the killed Set committed before the crash, so
			// its retry must not re-commit — one commit per Set issued.
			if st.Commits != nSets {
				t.Fatalf("Commits = %d, want %d (ledger dedup must not re-commit)", st.Commits, nSets)
			}
			if st.ApplyDups != 0 {
				t.Fatalf("ApplyDups = %d, want 0 (no duplicate entries should reach apply)", st.ApplyDups)
			}
			// Every write — including the one whose first ack was lost in
			// the crash — is visible on the new leader.
			for i := uint64(1); i <= nSets; i++ {
				v, ok, err := k.Get(i)
				if err != nil || !ok || v != 100+i {
					t.Fatalf("Get(%d) = %d,%v,%v; want %d,true,nil", i, v, ok, err, 100+i)
				}
			}
		})
	}
}

// TestReplicatedSnapshotCatchUp: a follower that died and lost its state
// is revived behind the leader's truncated log, so catch-up must go
// snapshot-then-suffix; afterwards its store matches the leader's byte
// for byte, LRU order included.
func TestReplicatedSnapshotCatchUp(t *testing.T) {
	r, err := NewReplicatedKV(256, ReplicatedConfig{Replicas: 3, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	g := r.Group()
	lead, _ := g.Leader()
	victim := (lead.ID() + 1) % g.Members()
	g.KillReplica(victim)

	k := r.NewClient()
	defer k.Close()
	for i := 0; i < 50; i++ {
		if err := k.Set(uint64(i%10), uint64(i+1)); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
	}
	st := g.Stats()
	if st.Snapshots == 0 || st.EntriesTruncated == 0 {
		t.Fatalf("snapshots=%d truncated=%d; the leader never compacted its log", st.Snapshots, st.EntriesTruncated)
	}

	if err := g.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if ok, err := g.Sync(victim); err != nil || !ok {
		t.Fatalf("Sync(%d) = %v,%v; want true,nil", victim, ok, err)
	}
	st = g.Stats()
	if st.SnapshotInstalls == 0 {
		t.Fatal("revived follower caught up without a snapshot install; truncation made that impossible")
	}
	leadState := lead.SM().(*kvMachine).s.EncodeState()
	gotState := g.Member(victim).SM().(*kvMachine).s.EncodeState()
	if !bytes.Equal(gotState, leadState) {
		t.Fatal("revived follower's store differs from the leader's")
	}
}

// TestReplicatedKVStateCodecRoundTrip pins the snapshot codec: an
// encode/restore round trip preserves contents AND eviction order, which
// is what keeps replicas deterministic under capacity pressure.
func TestReplicatedKVStateCodecRoundTrip(t *testing.T) {
	src := NewKVStore(4)
	for i := uint64(1); i <= 4; i++ {
		src.Set(i, i*10)
	}
	src.Get(1) // promote key 1: eviction order is now 2,3,4,1

	dst := NewKVStore(4)
	dst.RestoreState(src.EncodeState())
	if !bytes.Equal(dst.EncodeState(), src.EncodeState()) {
		t.Fatal("restore did not reproduce the encoded image")
	}
	// Both stores must now evict the same victim.
	src.Set(5, 50)
	dst.Set(5, 50)
	for _, s := range []*KVStore{src, dst} {
		if _, ok := s.Peek(2); ok {
			t.Fatal("LRU victim should have been key 2")
		}
		if _, ok := s.Peek(1); !ok {
			t.Fatal("promoted key 1 wrongly evicted: LRU order was not preserved")
		}
	}
	if !bytes.Equal(dst.EncodeState(), src.EncodeState()) {
		t.Fatal("stores diverged after identical post-restore writes")
	}
}

// TestReplicatedWriteBatchRunsCloseAtDelete pins the group-commit unit: a
// batch of writes costs one delegated call (one quorum round) per run,
// and a run ends at each delete — the one write whose result the
// single-cell ledger could not reproduce from the middle of a retried
// run. Every write still reports its own result.
func TestReplicatedWriteBatchRunsCloseAtDelete(t *testing.T) {
	r, err := NewReplicatedKV(64, ReplicatedConfig{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	k := r.NewClient()
	defer k.Close()
	if err := k.Set(9, 90); err != nil { // binds the handle to the leader generation
		t.Fatal(err)
	}
	req0, app0 := r.Server().Stats().Requests, r.Group().Stats().AppendAttempts

	ws := []replica.Write{
		{Kind: replica.OpSet, Key: 1, Val: 10},
		{Kind: replica.OpSet, Key: 2, Val: 20},
		{Kind: replica.OpDel, Key: 1}, // closes run 1, found
		{Kind: replica.OpDel, Key: 7}, // run 2 on its own, not found
		{Kind: replica.OpSet, Key: 3, Val: 30},
		{Kind: replica.OpSet, Key: 4, Val: 40}, // run 3 runs to the end
	}
	rets := []uint64{9, 9, 9, 9, 9, 9}
	done, err := k.WriteBatch(ws, rets)
	if err != nil || done != len(ws) {
		t.Fatalf("WriteBatch = %d, %v", done, err)
	}
	if want := []uint64{0, 0, 1, 0, 0, 0}; !slices.Equal(rets, want) {
		t.Fatalf("rets = %v, want %v", rets, want)
	}
	st := r.Group().Stats()
	if got := r.Server().Stats().Requests - req0; got != 3 {
		t.Fatalf("%d delegated calls for 3 runs", got)
	}
	if got := st.AppendAttempts - app0; got != 6 {
		t.Fatalf("%d follower appends for 3 runs on 2 followers, want 6", got)
	}
	if st.Commits != 7 {
		t.Fatalf("Commits = %d, want 7", st.Commits)
	}
	for key, want := range map[uint64]uint64{2: 20, 3: 30, 4: 40, 9: 90} {
		if v, ok, err := k.Get(key); err != nil || !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v,%v; want %d", key, v, ok, err, want)
		}
	}
	if _, ok, _ := k.Get(1); ok {
		t.Fatal("deleted key 1 reads back")
	}
}

// A handle that gives up on a run must not let that run's request — it
// may still be parked in a delegation slot — ever read a buffer refilled
// with later writes: the handle takes a new identity and buffer, and the
// old identity's buffer leaves the registry the delegated function reads.
func TestReplicatedGiveUpRetiresIdentity(t *testing.T) {
	r, err := NewReplicatedKV(64, ReplicatedConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	k := r.NewClient()
	defer k.Close()
	if err := k.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	oldID, oldRun := k.id, k.run
	r.Stop() // every further attempt fails at once
	if err := k.Set(2, 20); err == nil {
		t.Fatal("Set on a stopped shard succeeded")
	}
	if k.id == oldID || k.run == oldRun || k.seq != 0 {
		t.Fatalf("handle kept its identity after giving up: id %d -> %d, seq %d", oldID, k.id, k.seq)
	}
	if r.run(oldID) != nil || r.run(k.id) != k.run {
		t.Fatal("run registry does not reflect the swap")
	}
}
