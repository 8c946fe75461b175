package replica

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"ffwd/internal/fault"
	"ffwd/internal/linear"
)

// The group-commit tests. The safety property under test (DESIGN.md,
// "What a retried batch returns"): however often a batch is retried —
// after a lost ack, a quorum failure, a promotion — each of its writes
// takes effect exactly once and the retry returns what the first attempt
// would have.

// onceMachine is a mapMachine that refuses to apply one (client, seq)
// twice in its lifetime — the exactly-once property, checked where it
// would break.
type onceMachine struct {
	mapMachine
	seen map[[2]uint64]bool
	dups int
}

func newOnceMachine() *onceMachine {
	return &onceMachine{mapMachine: *newMapMachine(), seen: make(map[[2]uint64]bool)}
}

func (s *onceMachine) Apply(e Entry) uint64 {
	id := [2]uint64{e.ClientID, e.Seq}
	if s.seen[id] {
		s.dups++
	}
	s.seen[id] = true
	return s.mapMachine.Apply(e)
}

func sets(kv ...uint64) []Write {
	ws := make([]Write, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ws = append(ws, Write{Kind: OpSet, Key: kv[i], Val: kv[i+1]})
	}
	return ws
}

func totalApplies(machines []*mapMachine) (n int) {
	for _, m := range machines {
		n += m.applies
	}
	return n
}

// A batch commits as one unit: one leader append of n entries, one
// append round per follower, every member applied, and the result is the
// last write's.
func TestProposeBatchCommitsAsOneUnit(t *testing.T) {
	g, machines := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	ws := append(sets(1, 10, 2, 20, 3, 30), Write{Kind: OpDel, Key: 2})
	ret, err := g.ProposeBatch(lead, 7, 1, ws)
	if err != nil || ret != 1 {
		t.Fatalf("ProposeBatch = %d, %v; want 1 (the delete found its key), nil", ret, err)
	}
	st := g.Stats()
	if st.Commits != 4 || st.CommitIndex != 4 || st.AppendAttempts != 2 {
		t.Fatalf("stats after a 4-write batch on 3 members: %+v", st)
	}
	for i, m := range machines {
		if m.applies != 4 || m.m[1] != 10 || m.m[3] != 30 {
			t.Fatalf("member %d: applies=%d state=%v", i, m.applies, m.m)
		}
		if _, ok := m.m[2]; ok {
			t.Fatalf("member %d kept the deleted key", i)
		}
	}
	if ret, err := g.ProposeBatch(lead, 7, 5, nil); err != nil || ret != 0 {
		t.Fatalf("empty batch = %d, %v", ret, err)
	}
}

// The ack of a committed batch is lost with its leader. The retry against
// the promoted follower is answered from the replicated ledger — the
// original delete result — without re-executing anything.
func TestProposeBatchRetryAnsweredFromLedger(t *testing.T) {
	g, machines := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	mustPropose(t, g, lead, 42, 1, OpSet, 5, 50)
	ws := append(sets(6, 60, 7, 70), Write{Kind: OpDel, Key: 5})
	if ret, err := g.ProposeBatch(lead, 42, 2, ws); err != nil || ret != 1 {
		t.Fatalf("first attempt = %d, %v", ret, err)
	}
	applied, logLast := totalApplies(machines), g.Stats().LogLast

	g.KillReplica(lead.ID())
	newLead, _, err := g.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	ret, err := g.ProposeBatch(newLead, 42, 2, ws)
	if err != nil || ret != 1 {
		t.Fatalf("retried batch = %d, %v; want the original 1", ret, err)
	}
	st := g.Stats()
	if st.LedgerHits != 3 || st.LogLast != logLast {
		t.Fatalf("retry was not a pure ledger hit: hits=%d log %d -> %d", st.LedgerHits, logLast, st.LogLast)
	}
	if now := totalApplies(machines); now != applied {
		t.Fatalf("retry re-executed: applies %d -> %d", applied, now)
	}
}

// A crash that tears a batch on disk leaves, after recovery, a ledger
// whose seq is inside the batch's range: the prefix applied, the rest
// never logged. The retry must skip exactly that prefix and propose the
// remainder — here the same state is reached by committing the prefix as
// its own batch first.
func TestProposeBatchMidBatchLedgerHitSkipsAppliedPrefix(t *testing.T) {
	g, machines := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	mustPropose(t, g, lead, 9, 4, OpSet, 3, 33)
	full := append(sets(1, 11, 2, 22), Write{Kind: OpDel, Key: 3})
	if _, err := g.ProposeBatch(lead, 9, 5, full[:2]); err != nil {
		t.Fatalf("prefix: %v", err)
	}
	before, st0 := totalApplies(machines), g.Stats()

	ret, err := g.ProposeBatch(lead, 9, 5, full)
	if err != nil || ret != 1 {
		t.Fatalf("retried batch = %d, %v; want 1 from the one write still to run", ret, err)
	}
	st := g.Stats()
	if hits := st.LedgerHits - st0.LedgerHits; hits != 2 {
		t.Fatalf("LedgerHits grew by %d, want 2 (the applied prefix)", hits)
	}
	if st.LogLast != st0.LogLast+1 || st.Commits != st0.Commits+1 {
		t.Fatalf("log %d -> %d, commits %d -> %d; want one new entry", st0.LogLast, st.LogLast, st0.Commits, st.Commits)
	}
	if now := totalApplies(machines); now != before+3 {
		t.Fatalf("applies %d -> %d across 3 members, want exactly one more each", before, now)
	}
	// And the whole batch again is now a full hit with the same answer.
	if ret, err := g.ProposeBatch(lead, 9, 5, full); err != nil || ret != 1 {
		t.Fatalf("second retry = %d, %v", ret, err)
	}
	if now := totalApplies(machines); now != before+3 {
		t.Fatalf("full-hit retry re-executed")
	}
}

// deliverTo lets appends through to one follower only while active.
type deliverTo struct {
	only   int
	active bool
}

func (h *deliverTo) DropAppend(f int, _ uint64) bool { return h.active && f != h.only }
func (h *deliverTo) SlowAppend(int, uint64)          {}

// Promotion mid-batch: the batch reaches the leader and one follower of
// five — short of quorum, so it is never acknowledged — and the leader
// dies. The follower that holds it wins the election with the batch
// uncommitted in its log; the client's retry appends it again, and the
// apply fence must run each write once.
func TestProposeBatchPromoteMidBatchAppliesOnce(t *testing.T) {
	h := &deliverTo{}
	g, machines := newTestGroup(t, 5, 0, h)
	lead, _ := g.Leader()
	mustPropose(t, g, lead, 1, 1, OpSet, 9, 90)
	h.only, h.active = (lead.ID()+1)%5, true
	ws := append(sets(1, 11, 2, 22), Write{Kind: OpDel, Key: 9})
	if _, err := g.ProposeBatch(lead, 1, 2, ws); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("2-of-5 batch error = %v, want ErrNoQuorum", err)
	}
	g.KillReplica(lead.ID())
	h.active = false
	newLead, _, err := g.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if newLead.ID() != h.only {
		t.Fatalf("promoted member %d, want %d (the one holding the batch)", newLead.ID(), h.only)
	}
	ret, err := g.ProposeBatch(newLead, 1, 2, ws)
	if err != nil || ret != 1 {
		t.Fatalf("retry on the new leader = %d, %v; want 1", ret, err)
	}
	if st := g.Stats(); st.ApplyDups < 3 {
		t.Fatalf("the duplicate copy of the batch was not fenced: %+v", st)
	}
	for i, m := range machines {
		if i == lead.ID() {
			continue
		}
		if m.applies != 4 || m.m[1] != 11 || m.m[2] != 22 {
			t.Fatalf("member %d: applies=%d state=%v, want each write once", i, m.applies, m.m)
		}
	}
}

// The randomized leg: several clients' batches run through a 3-member
// group under seeded partition bursts and slow links; quorum failures are
// retried, and one failure in three kills the leader with the batch
// parked in its log, promotes, revives the deposed member wiped, and
// retries on the new leader. The recorded history must linearize, no
// member may ever apply one (client, seq) twice, and the members must
// converge.
func TestProposeBatchLinearizableUnderFaults(t *testing.T) {
	seeds, err := fault.SeedsFromEnv(5, 9, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			rng := seed
			rnd := func(n uint64) uint64 {
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return (z ^ (z >> 31)) % n
			}
			inj := fault.New(fault.Plan{
				Seed:              seed,
				PartitionEvery:    7 + seed%11,
				PartitionBurst:    3 + seed%3,
				SlowFollowerEvery: 5 + seed%7,
				SlowFollowerDelay: time.Microsecond,
			})
			var machines []*onceMachine
			g, err := NewGroup(GroupConfig{
				Replicas:      3,
				SnapshotEvery: 8,
				Hooks:         inj,
				NewMachine: func() StateMachine {
					m := newOnceMachine()
					machines = append(machines, m)
					return m
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			const clients, keys, batches = 3, 6, 300
			var seq [clients]uint64
			rec := linear.NewRecorder()
			kills, retries := 0, 0
			for b := 0; b < batches; b++ {
				c := int(rnd(clients))
				var ws []Write
				for n := 1 + rnd(6); n > 0; n-- {
					ws = append(ws, Write{Kind: OpSet, Key: rnd(keys), Val: uint64(b+1)<<8 | n})
				}
				if rnd(3) == 0 {
					ws = append(ws, Write{Kind: OpDel, Key: rnd(keys)})
				}
				idx := make([]int, len(ws))
				for i, w := range ws {
					if w.Kind == OpSet {
						idx[i] = rec.Invoke(c, linear.KVSet, w.Key, w.Val)
					} else {
						idx[i] = rec.Invoke(c, linear.KVDel, w.Key, 0)
					}
				}
				// failover kills the leader, promotes, and revives the deposed
				// member wiped and caught up, so the group is whole again.
				failover := func(lead *Replica) {
					kills++
					g.KillReplica(lead.ID())
					if _, _, err := g.Promote(); err != nil {
						t.Fatalf("Promote: %v", err)
					}
					if err := g.Restart(lead.ID()); err != nil {
						t.Fatalf("Restart: %v", err)
					}
					for ok := false; !ok; {
						if ok, err = g.Sync(lead.ID()); err != nil {
							t.Fatalf("Sync: %v", err)
						}
					}
				}
				for acked := false; !acked; {
					lead, _ := g.Leader()
					ret, err := g.ProposeBatch(lead, uint64(c+1), seq[c]+1, ws)
					switch {
					case err == nil && rnd(8) == 0:
						// Committed, but the ack dies with the leader: the
						// retry must be answered from the new leader's ledger.
						failover(lead)
						lead, _ = g.Leader()
						again, err := g.ProposeBatch(lead, uint64(c+1), seq[c]+1, ws)
						if err != nil || again != ret {
							t.Fatalf("batch %d: retry after a lost ack = %d, %v; first attempt returned %d", b, again, err, ret)
						}
						fallthrough
					case err == nil:
						for i, w := range ws {
							rec.Complete(idx[i], 0, w.Kind == OpDel && ret == 1)
						}
						seq[c] += uint64(len(ws))
						acked = true
					case !errors.Is(err, ErrNoQuorum):
						t.Fatalf("batch %d: %v", b, err)
					default:
						// Short of quorum: retry, one time in three on a new
						// leader — the old one dies with the batch parked in
						// its log.
						if retries++; rnd(3) == 0 {
							failover(lead)
						}
					}
				}
				// A leader-local read, as the serving layer does them.
				lead, _ := g.Leader()
				k := rnd(keys)
				i := rec.Invoke(clients, linear.KVGet, k, 0)
				v, ok := lead.SM().(*onceMachine).m[k]
				rec.Complete(i, v, ok)
			}
			if p := linear.FailingPartition(linear.KVModel(), rec.History()); p >= 0 {
				t.Fatalf("batched history not linearizable (partition %d)", p)
			}
			st := g.Stats()
			t.Logf("batches=%d retries=%d kills=%d commits=%d ledger-hits=%d apply-dups=%d drops=%d snapshots=%d installs=%d",
				batches, retries, kills, st.Commits, st.LedgerHits, st.ApplyDups, st.AppendDrops, st.Snapshots, st.SnapshotInstalls)
			if retries == 0 || kills == 0 || st.ApplyDups == 0 || st.LedgerHits == 0 {
				t.Fatalf("the fault plan missed the workload: retries=%d kills=%d apply-dups=%d ledger-hits=%d", retries, kills, st.ApplyDups, st.LedgerHits)
			}
			for i, m := range machines {
				if m.dups != 0 {
					t.Fatalf("machine %d applied %d (client, seq) pairs twice", i, m.dups)
				}
			}
			lead, _ := g.Leader()
			want := lead.SM().Snapshot()
			for id := 0; id < g.Members(); id++ {
				for ok := false; !ok; {
					if ok, err = g.Sync(id); err != nil {
						t.Fatalf("Sync(%d): %v", id, err)
					}
				}
				if got := g.Member(id).SM().Snapshot(); string(got) != string(want) {
					t.Fatalf("member %d diverged from the leader", id)
				}
			}
		})
	}
}

// Allocations per committed batch must not grow with the batch: entries,
// the ack channel and the quorum timer are the group's own scratch.
func TestProposeBatchAllocsIndependentOfSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) *Group
	}{
		{"in-process", func(t *testing.T) *Group { g, _ := newTestGroup(t, 3, 1<<40, nil); return g }},
		{"remote", func(t *testing.T) *Group {
			g, _, _ := newRemoteGroup(t, time.Second)
			g.cfg.SnapshotEvery = 1 << 40
			g.members[0].snapshotEvery = 1 << 40
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.mk(t)
			lead, _ := g.Leader()
			ws := make([]Write, 64)
			for i := range ws {
				ws[i] = Write{Kind: OpSet, Key: uint64(i % 8), Val: uint64(i)}
			}
			seq := uint64(0)
			measure := func(n int) float64 {
				run := func() {
					if _, err := g.ProposeBatch(lead, 1, seq+1, ws[:n]); err != nil {
						t.Fatal(err)
					}
					seq += uint64(n)
				}
				for i := 0; i < 64; i++ {
					run() // grow the log's backing array past what the measured runs append
				}
				return testing.AllocsPerRun(50, run)
			}
			big, one := measure(64), measure(1)
			if big > one {
				t.Fatalf("allocs per committed batch: %v at 64 writes vs %v at 1 — grew with the batch", big, one)
			}
			if one > 0 {
				t.Fatalf("a committed one-write batch allocates %v times, want 0", one)
			}
		})
	}
}
