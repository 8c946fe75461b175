package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"testing"
)

// mapMachine is a deterministic test state machine: a map with an apply
// counter, snapshot-encoded in sorted key order so byte equality means
// state equality.
type mapMachine struct {
	m       map[uint64]uint64
	applies int
}

func newMapMachine() *mapMachine { return &mapMachine{m: make(map[uint64]uint64)} }

func (s *mapMachine) Apply(e Entry) uint64 {
	s.applies++
	switch e.Kind {
	case OpSet:
		s.m[e.Key] = e.Val
		return 0
	case OpDel:
		if _, ok := s.m[e.Key]; ok {
			delete(s.m, e.Key)
			return 1
		}
		return 0
	}
	return ^uint64(0)
}

func (s *mapMachine) Snapshot() []byte {
	keys := make([]uint64, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, 0, 16*len(keys))
	var b [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		buf = append(buf, b[:]...)
		binary.LittleEndian.PutUint64(b[:], s.m[k])
		buf = append(buf, b[:]...)
	}
	return buf
}

func (s *mapMachine) Restore(data []byte) {
	s.m = make(map[uint64]uint64, len(data)/16)
	for off := 0; off+16 <= len(data); off += 16 {
		k := binary.LittleEndian.Uint64(data[off:])
		v := binary.LittleEndian.Uint64(data[off+8:])
		s.m[k] = v
	}
}

func newTestGroup(t *testing.T, replicas int, snapEvery uint64, hooks Hooks) (*Group, []*mapMachine) {
	t.Helper()
	var machines []*mapMachine
	g, err := NewGroup(GroupConfig{
		Replicas:      replicas,
		SnapshotEvery: snapEvery,
		Hooks:         hooks,
		NewMachine: func() StateMachine {
			m := newMapMachine()
			machines = append(machines, m)
			return m
		},
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	return g, machines
}

func mustPropose(t *testing.T, g *Group, r *Replica, client, seq uint64, kind Op, key, val uint64) uint64 {
	t.Helper()
	ret, err := g.Propose(r, client, seq, kind, key, val)
	if err != nil {
		t.Fatalf("Propose(client=%d seq=%d): %v", client, seq, err)
	}
	return ret
}

func TestSingleReplicaDegenerates(t *testing.T) {
	g, _ := newTestGroup(t, 1, 0, nil)
	lead, _ := g.Leader()
	mustPropose(t, g, lead, 1, 1, OpSet, 10, 100)
	if ret := mustPropose(t, g, lead, 1, 2, OpDel, 10, 0); ret != 1 {
		t.Fatalf("delete of present key returned %d, want 1", ret)
	}
	st := g.Stats()
	if st.Commits != 2 || st.CommitIndex != 2 {
		t.Fatalf("stats after two commits: %+v", st)
	}
}

func TestQuorumAckAppliesOnFollowers(t *testing.T) {
	g, machines := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	for i := uint64(1); i <= 20; i++ {
		mustPropose(t, g, lead, 7, i, OpSet, i, i*10)
	}
	// Caught-up followers receive the commit push before the client is
	// acknowledged: every member has applied everything.
	want := machines[lead.ID()].Snapshot()
	for i, m := range machines {
		if !bytes.Equal(m.Snapshot(), want) {
			t.Fatalf("member %d state diverged from leader", i)
		}
		if m.applies != 20 {
			t.Fatalf("member %d applied %d entries, want 20", i, m.applies)
		}
	}
	st := g.Stats()
	if st.Commits != 20 || st.AppendAttempts == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLedgerAnswersRetryAcrossPromotion(t *testing.T) {
	g, machines := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	mustPropose(t, g, lead, 42, 1, OpSet, 5, 50)
	if ret := mustPropose(t, g, lead, 42, 2, OpDel, 5, 0); ret != 1 {
		t.Fatalf("delete returned %d, want 1", ret)
	}
	applied := 0
	for _, m := range machines {
		applied += m.applies
	}

	// The leader dies after acknowledging seq 2; the client retries the
	// same op against the promoted follower and must get the same
	// answer back without re-execution.
	g.KillReplica(lead.ID())
	newLead, ep, err := g.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if newLead == lead || ep != 1 {
		t.Fatalf("promotion picked %d epoch %d", newLead.ID(), ep)
	}
	ret, err := g.Propose(newLead, 42, 2, OpDel, 5, 0)
	if err != nil {
		t.Fatalf("retry propose: %v", err)
	}
	if ret != 1 {
		t.Fatalf("retried delete returned %d, want the original 1", ret)
	}
	st := g.Stats()
	if st.LedgerHits != 1 {
		t.Fatalf("LedgerHits = %d, want 1", st.LedgerHits)
	}
	nowApplied := 0
	for _, m := range machines {
		nowApplied += m.applies
	}
	if nowApplied != applied {
		t.Fatalf("retry re-executed: applies %d -> %d", applied, nowApplied)
	}
	// The deposed leader can no longer propose.
	if _, err := g.Propose(lead, 42, 3, OpSet, 1, 1); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("deposed propose error = %v, want ErrNotLeader", err)
	}
}

// partitionHooks drops appends to one follower while active.
type partitionHooks struct {
	target int
	active bool
	drops  int
}

func (h *partitionHooks) DropAppend(follower int, n uint64) bool {
	if h.active && (h.target < 0 || follower == h.target) {
		h.drops++
		return true
	}
	return false
}
func (h *partitionHooks) SlowAppend(int, uint64) {}

func TestNoQuorumThenRetryAppliesOnce(t *testing.T) {
	h := &partitionHooks{target: -1, active: true} // full partition
	g, machines := newTestGroup(t, 3, 0, h)
	lead, _ := g.Leader()
	if _, err := g.Propose(lead, 9, 1, OpSet, 1, 11); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("partitioned propose error = %v, want ErrNoQuorum", err)
	}
	// The entry is parked in the leader's log; the client retries after
	// the partition heals, appending a duplicate that the apply fence
	// must skip.
	h.active = false
	if ret := mustPropose(t, g, lead, 9, 1, OpSet, 1, 11); ret != 0 {
		t.Fatalf("healed retry returned %d", ret)
	}
	st := g.Stats()
	if st.NoQuorum != 1 || st.AppendDrops == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ApplyDups == 0 {
		t.Fatalf("duplicate log entry was not fenced: %+v", st)
	}
	total := 0
	for _, m := range machines {
		total += m.applies
	}
	if total != 3 {
		t.Fatalf("op applied %d times across 3 members, want exactly 3", total)
	}
}

func TestSnapshotCatchUpRestoresWipedReplica(t *testing.T) {
	g, machines := newTestGroup(t, 3, 8, nil)
	lead, _ := g.Leader()
	victim := (lead.ID() + 1) % 3
	g.KillReplica(victim)
	// Enough traffic for several snapshot cycles while the victim is
	// down: the live log prefix is truncated well past the victim's
	// wiped position.
	for i := uint64(1); i <= 50; i++ {
		mustPropose(t, g, lead, 3, i, OpSet, i%16, i)
	}
	st := g.Stats()
	if st.Snapshots == 0 || st.EntriesTruncated == 0 {
		t.Fatalf("no snapshots/truncation during traffic: %+v", st)
	}
	if st.LogBase == 0 {
		t.Fatalf("leader log base still 0: %+v", st)
	}
	if err := g.Restart(victim); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	ok, err := g.Sync(victim)
	if err != nil || !ok {
		t.Fatalf("Sync = %v, %v", ok, err)
	}
	st = g.Stats()
	if st.SnapshotInstalls == 0 {
		t.Fatalf("catch-up did not install a snapshot: %+v", st)
	}
	// The revived member converged by snapshot + suffix, not by full
	// replay: it applied at most the post-snapshot suffix. (Restart
	// built it a fresh machine; fetch it through the member.)
	revived := g.Member(victim).SM().(*mapMachine)
	if revived.applies > int(st.LogLast-st.LogBase)+int(g.cfg.SnapshotEvery) {
		t.Fatalf("revived member applied %d entries — looks like full replay", revived.applies)
	}
	wantState := machines[lead.ID()].Snapshot()
	if !bytes.Equal(revived.Snapshot(), wantState) {
		t.Fatalf("revived member state diverged from leader")
	}
	// And it is promotable: kill the leader, the revived member may win.
	g.KillReplica(lead.ID())
	newLead, _, err := g.Promote()
	if err != nil {
		t.Fatalf("Promote after catch-up: %v", err)
	}
	if newLead.dead {
		t.Fatalf("promoted a dead member")
	}
}

func TestPromoteNeedsQuorumThenHeals(t *testing.T) {
	g, _ := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	follower := (lead.ID() + 1) % 3
	g.KillReplica(follower)
	g.KillReplica(lead.ID())
	if _, _, err := g.Promote(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Promote with 1/3 alive = %v, want ErrNoQuorum", err)
	}
	if err := g.Restart(follower); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	newLead, ep, err := g.Promote()
	if err != nil {
		t.Fatalf("Promote after heal: %v", err)
	}
	if newLead.ID() == lead.ID() || ep == 0 {
		t.Fatalf("promotion picked %d epoch %d", newLead.ID(), ep)
	}
}

func TestPromotePicksMostUpToDate(t *testing.T) {
	// Partition follower B; traffic flows to A only; then the leader
	// dies. A must win the election over the stale B.
	h := &partitionHooks{active: false}
	g, _ := newTestGroup(t, 3, 0, h)
	lead, _ := g.Leader()
	a := (lead.ID() + 1) % 3
	b := (lead.ID() + 2) % 3
	mustPropose(t, g, lead, 1, 1, OpSet, 1, 1)
	h.target = b
	h.active = true
	for i := uint64(2); i <= 6; i++ {
		mustPropose(t, g, lead, 1, i, OpSet, i, i)
	}
	g.KillReplica(lead.ID())
	newLead, _, err := g.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if newLead.ID() != a {
		t.Fatalf("promotion picked member %d, want the caught-up %d", newLead.ID(), a)
	}
	// Every acknowledged write is at or below the new leader's applied
	// cursor — nothing acknowledged was lost.
	if newLead.lastApplied != 6 {
		t.Fatalf("new leader lastApplied = %d, want 6", newLead.lastApplied)
	}
	// The stale follower reconverges on the next propose.
	h.active = false
	mustPropose(t, g, newLead, 1, 7, OpSet, 7, 7)
	if g.members[b].lastApplied != 7 {
		t.Fatalf("stale follower did not catch up: lastApplied=%d", g.members[b].lastApplied)
	}
}

func TestLogTruncateAndConflict(t *testing.T) {
	var l Log
	for i := uint64(1); i <= 10; i++ {
		l.Append(Entry{Index: i, Term: 1})
	}
	if n := l.TruncatePrefix(4, 1); n != 4 {
		t.Fatalf("TruncatePrefix dropped %d, want 4", n)
	}
	if l.Base() != 4 || l.Last() != 10 || l.Len() != 6 {
		t.Fatalf("after prefix truncation: base=%d last=%d len=%d", l.Base(), l.Last(), l.Len())
	}
	if _, ok := l.At(4); ok {
		t.Fatalf("At(base) should miss")
	}
	if tm, ok := l.TermAt(4); !ok || tm != 1 {
		t.Fatalf("TermAt(base) = %d,%v", tm, ok)
	}
	if e, ok := l.At(5); !ok || e.Index != 5 {
		t.Fatalf("At(5) = %+v,%v", e, ok)
	}
	l.TruncateSuffix(8)
	if l.Last() != 7 {
		t.Fatalf("after suffix truncation: last=%d, want 7", l.Last())
	}
	if got := l.From(6); len(got) != 2 || got[0].Index != 6 {
		t.Fatalf("From(6) = %+v", got)
	}
	l.Reset(20, 3)
	if l.Base() != 20 || l.Last() != 20 || l.Len() != 0 {
		t.Fatalf("after reset: base=%d last=%d len=%d", l.Base(), l.Last(), l.Len())
	}
	if tm, _ := l.TermAt(20); tm != 3 {
		t.Fatalf("TermAt after reset = %d", tm)
	}
}

func TestMoreUpToDateOrder(t *testing.T) {
	mk := func(entries ...Entry) *Replica {
		r := &Replica{}
		for _, e := range entries {
			r.log.Append(e)
		}
		return r
	}
	longer := mk(Entry{Index: 1, Term: 1}, Entry{Index: 2, Term: 1})
	shorter := mk(Entry{Index: 1, Term: 1})
	higherTerm := mk(Entry{Index: 1, Term: 2})
	if !moreUpToDate(longer, shorter) || moreUpToDate(shorter, longer) {
		t.Fatalf("length order wrong")
	}
	if !moreUpToDate(higherTerm, longer) {
		t.Fatalf("term must dominate length")
	}
}

// With no explicit cadence the snapshot rule is size-driven: never before
// 64 applied entries, and after that only once the live log outweighs the
// last snapshot image — so a big store is not rewritten every few writes,
// and every member (followers included) still truncates its own log.
func TestSnapshotRuleWaitsForLogToOutweighImage(t *testing.T) {
	g, _ := newTestGroup(t, 3, 0, nil)
	lead, _ := g.Leader()
	seq := uint64(0)
	write := func(n int, keyspace uint64) {
		ws := make([]Write, n)
		for i := range ws {
			ws[i] = Write{Kind: OpSet, Key: (seq + uint64(i)) % keyspace, Val: seq}
		}
		if _, err := g.ProposeBatch(lead, 1, seq+1, ws); err != nil {
			t.Fatal(err)
		}
		seq += uint64(n)
	}
	write(63, 1<<20)
	if st := g.Stats(); st.Snapshots != 0 || st.LogBase != 0 {
		t.Fatalf("snapshot before 64 entries: %+v", st)
	}
	write(1, 1<<20)
	if st := g.Stats(); st.Snapshots != 3 || st.LogBase != 64 {
		t.Fatalf("no snapshot on every member at 64 entries: %+v", st)
	}
	// Grow the state to 2,000 keys: the image is now 16 B x 2,000 keys.
	for seq < 2000 {
		write(50, 1<<20)
	}
	image := lead.snap.weight()
	if image < 16*1500 {
		t.Fatalf("snapshot image is %d bytes; the state did not grow", image)
	}
	// Overwrites from here on (the image stays put): the next snapshot is
	// due only when the live log outweighs it.
	snaps, base := g.Stats().Snapshots, lead.log.Base()
	due := image/entryWeight + 1 - (seq - base)
	write(int(due)-1, 1000)
	if st := g.Stats(); st.Snapshots != snaps {
		t.Fatalf("snapshotted before the log outweighed the image: %+v", st)
	}
	write(1, 1000)
	st := g.Stats()
	if st.Snapshots != snaps+3 || st.LogBase != seq {
		t.Fatalf("no snapshot once the log outweighed the image: snapshots %d -> %d, base=%d, want base %d", snaps, st.Snapshots, st.LogBase, seq)
	}
	for i := 0; i < g.Members(); i++ {
		if n := g.Member(i).LogLen(); n != 0 {
			t.Fatalf("member %d still holds %d live entries after the snapshot", i, n)
		}
	}
}
