package replica

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRemote is a scriptable cross-process follower: it acks or refuses
// Replicate calls according to its mode, tracking what it saw.
type fakeRemote struct {
	id      int
	mode    atomic.Int32 // 0 = ack, 1 = nack, 2 = never answer, 3 = hold
	acked   atomic.Uint64
	commits atomic.Uint64
	pushes  atomic.Uint64

	mu   sync.Mutex
	held []heldAck // calls answered later by release
}

type heldAck struct {
	index uint64
	done  chan<- RemoteAck
}

const (
	frAck int32 = iota
	frNack
	frSilent
	frHold
)

// holding reports how many Replicate calls the remote is holding.
func (f *fakeRemote) holding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.held)
}

// release acks the held calls for index.
func (f *fakeRemote) release(index uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.held[:0]
	for _, h := range f.held {
		if h.index == index {
			h.done <- RemoteAck{ID: f.id, Index: index, OK: true}
		} else {
			kept = append(kept, h)
		}
	}
	f.held = kept
}

func (f *fakeRemote) ID() int       { return f.id }
func (f *fakeRemote) Healthy() bool { return f.mode.Load() == frAck }

func (f *fakeRemote) Replicate(index, commit uint64, done chan<- RemoteAck) {
	f.commits.Store(commit)
	if done == nil {
		f.pushes.Add(1)
		return
	}
	switch f.mode.Load() {
	case frAck:
		f.acked.Store(index)
		done <- RemoteAck{ID: f.id, Index: index, OK: true}
	case frNack:
		done <- RemoteAck{ID: f.id, OK: false}
	case frSilent:
	case frHold:
		f.mu.Lock()
		f.held = append(f.held, heldAck{index, done})
		f.mu.Unlock()
	}
}

func newRemoteGroup(t *testing.T, timeout time.Duration) (*Group, *fakeRemote, *fakeRemote) {
	t.Helper()
	r1 := &fakeRemote{id: 101}
	r2 := &fakeRemote{id: 102}
	g, err := NewGroup(GroupConfig{
		Replicas:   1,
		Remotes:    []Remote{r1, r2},
		AckTimeout: timeout,
		NewMachine: func() StateMachine { return newMapMachine() },
	})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	return g, r1, r2
}

// One local leader plus two remotes: quorum is 2, so one remote ack
// commits — and no remote gets a frame of its own for the new commit
// cursor (it rides the next append or the transport's heartbeat).
func TestRemoteQuorumCommit(t *testing.T) {
	g, r1, r2 := newRemoteGroup(t, time.Second)
	if q := g.Quorum(); q != 2 {
		t.Fatalf("Quorum = %d, want 2", q)
	}
	// r1 refuses, r2 acks: 1 local + 1 remote = quorum. (The refusal is
	// listed first so its ack drains before quorum is reached and the
	// wait loop exits — late acks are simply abandoned.)
	r1.mode.Store(frNack)
	lead, _ := g.Leader()
	if _, err := g.Propose(lead, 1, 1, OpSet, 10, 100); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	st := g.Stats()
	if st.CommitIndex != 1 || st.Commits != 1 {
		t.Fatalf("stats after commit: %+v", st)
	}
	if st.RemoteAcks != 1 || st.RemoteNacks != 1 {
		t.Fatalf("remote counters: acks=%d nacks=%d", st.RemoteAcks, st.RemoteNacks)
	}
	if r2.acked.Load() != 1 {
		t.Fatalf("remote never saw the entry")
	}
	if r1.pushes.Load() != 0 || r2.pushes.Load() != 0 {
		t.Fatalf("commit-push frames: %d/%d, want none", r1.pushes.Load(), r2.pushes.Load())
	}
}

// Both remotes refusing leaves the leader below quorum: the propose
// fails fast with ErrNoQuorum (no timeout wait — refusals are answers).
func TestRemoteNoQuorumFailsFast(t *testing.T) {
	g, r1, r2 := newRemoteGroup(t, 10*time.Second)
	r1.mode.Store(frNack)
	r2.mode.Store(frNack)
	lead, _ := g.Leader()
	start := time.Now()
	if _, err := g.Propose(lead, 1, 1, OpSet, 1, 1); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Propose err = %v, want ErrNoQuorum", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("refused acks still waited for the timeout")
	}
	st := g.Stats()
	if st.NoQuorum != 1 || st.CommitIndex != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The entry is parked in the leader's log awaiting a heal, exactly
	// like the in-process partition case.
	if st.LogLast != 1 {
		t.Fatalf("parked entry missing: %+v", st)
	}
	// Heal and retry: the retry appends a duplicate entry; apply-time
	// fencing keeps it exactly-once.
	r1.mode.Store(frAck)
	if _, err := g.Propose(lead, 1, 1, OpSet, 1, 1); err != nil {
		t.Fatalf("healed retry: %v", err)
	}
	if st := g.Stats(); st.ApplyDups == 0 {
		t.Fatalf("duplicate not fenced: %+v", st)
	}
}

// A silent remote (dead process, unreachable network) costs at most the
// ack timeout, after which the propose reports no quorum.
func TestRemoteSilentTimesOut(t *testing.T) {
	g, r1, r2 := newRemoteGroup(t, 50*time.Millisecond)
	r1.mode.Store(frSilent)
	r2.mode.Store(frSilent)
	lead, _ := g.Leader()
	start := time.Now()
	_, err := g.Propose(lead, 1, 1, OpSet, 1, 1)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Propose err = %v, want ErrNoQuorum", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 2*time.Second {
		t.Fatalf("timeout wait was %v", d)
	}
	if st := g.Stats(); st.RemoteNacks != 2 {
		t.Fatalf("RemoteNacks = %d, want 2", st.RemoteNacks)
	}
}

// FrameFor serves copied suffixes: mutating the group's log afterwards
// (snapshot truncation shifts the backing array) must not corrupt a
// frame already handed to a transport goroutine.
func TestFrameForCopiesEntries(t *testing.T) {
	g, _, _ := newRemoteGroup(t, time.Second)
	g.cfg.Remotes = nil // plain local commits for seeding
	lead, _ := g.Leader()
	for i := uint64(1); i <= 10; i++ {
		if _, err := g.Propose(lead, 1, i, OpSet, i, i*7); err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	fr := g.FrameFor(3, nil)
	if fr.PrevIndex != 2 || len(fr.Entries) != 8 || fr.Entries[0].Index != 3 {
		t.Fatalf("frame: prev=%d n=%d", fr.PrevIndex, len(fr.Entries))
	}
	saved := append([]Entry(nil), fr.Entries...)
	// Force a snapshot cycle, which prefix-truncates the leader log in
	// place.
	g.mu.Lock()
	lead.snapshotEvery = 1
	err := lead.maybeSnapshot()
	g.mu.Unlock()
	if err != nil {
		t.Fatalf("maybeSnapshot: %v", err)
	}
	for i := range fr.Entries {
		if fr.Entries[i] != saved[i] {
			t.Fatalf("frame entry %d mutated by truncation", i)
		}
	}
	// A next-index inside truncated history gets the snapshot plus the
	// (empty) suffix after it.
	fr = g.FrameFor(3, nil)
	if fr.Snap == nil || fr.Snap.LastIndex != 10 {
		t.Fatalf("expected snapshot frame, got %+v", fr)
	}
}

// awaitAsync runs Await on its own goroutine and waiter, as a handle
// does, and returns where its result lands.
func awaitAsync(g *Group, p Pending) <-chan error {
	done := make(chan error, 1)
	go func() {
		var w AckWaiter
		done <- g.Await(&w, p)
	}()
	return done
}

func waitHolding(t *testing.T, n int, rs ...*fakeRemote) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range rs {
		for r.holding() < n {
			if time.Now().After(deadline) {
				t.Fatalf("remote %d holds %d calls, want %d", r.id, r.holding(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Two runs appended before any ack both commit. Their acks come back in
// reverse order: the younger run's Commit applies both, the older one's
// is then a no-op that still answers from the ledger, and the state is
// the serial run's.
func TestPipelinedAppendsCommitInAnyOrder(t *testing.T) {
	g, r1, r2 := newRemoteGroup(t, 5*time.Second)
	r1.mode.Store(frHold)
	r2.mode.Store(frHold)
	lead, _ := g.Leader()
	wsA := sets(1, 10, 2, 20)
	wsB := append(sets(1, 11), Write{Kind: OpDel, Key: 2})
	_, pA, err := g.Append(lead, 1, 1, wsA)
	if err != nil || pA.Need != 1 {
		t.Fatalf("Append A = %+v, %v; want pending on one remote ack", pA, err)
	}
	_, pB, err := g.Append(lead, 2, 1, wsB)
	if err != nil || pB.Need != 1 || pB.Index != 4 {
		t.Fatalf("Append B = %+v, %v; want pending through index 4", pB, err)
	}
	doneA, doneB := awaitAsync(g, pA), awaitAsync(g, pB)
	waitHolding(t, 2, r1, r2)

	r1.release(pB.Index)
	if err := <-doneB; err != nil {
		t.Fatalf("Await B: %v", err)
	}
	if ret, err := g.Commit(lead, pB); err != nil || ret != 1 {
		t.Fatalf("Commit B = %d, %v; want 1 (the delete found key 2)", ret, err)
	}
	r2.release(pA.Index)
	if err := <-doneA; err != nil {
		t.Fatalf("Await A: %v", err)
	}
	applied := lead.SM().(*mapMachine).applies
	if ret, err := g.Commit(lead, pA); err != nil || ret != 0 {
		t.Fatalf("Commit A = %d, %v; want the set's 0 from the ledger", ret, err)
	}
	if now := lead.SM().(*mapMachine).applies; now != applied {
		t.Fatalf("the older Commit applied %d more entries, want none", now-applied)
	}
	if st := g.Stats(); st.CommitIndex != 4 || st.Commits != 4 || st.NoQuorum != 0 {
		t.Fatalf("stats: %+v", st)
	}

	serial, _, _ := newRemoteGroup(t, time.Second)
	slead, _ := serial.Leader()
	if _, err := serial.ProposeBatch(slead, 1, 1, wsA); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.ProposeBatch(slead, 2, 1, wsB); err != nil {
		t.Fatal(err)
	}
	if got, want := lead.SM().Snapshot(), slead.SM().Snapshot(); string(got) != string(want) {
		t.Fatalf("pipelined state %x, serial state %x", got, want)
	}
}

// A run whose quorum wait failed is retried with the same seqs. Whether
// the retry appends a second copy or a younger run's commit applied the
// first copy meanwhile, each write is applied once.
func TestAwaitFailureRetryAppliesOnce(t *testing.T) {
	var m *onceMachine
	r1, r2 := &fakeRemote{id: 101}, &fakeRemote{id: 102}
	g, err := NewGroup(GroupConfig{
		Replicas:   1,
		Remotes:    []Remote{r1, r2},
		AckTimeout: 20 * time.Millisecond,
		NewMachine: func() StateMachine { m = newOnceMachine(); return m },
	})
	if err != nil {
		t.Fatal(err)
	}
	lead, _ := g.Leader()
	retry := func(client uint64, ws []Write) {
		t.Helper()
		ret, p, err := g.Append(lead, client, 1, ws)
		if err == nil && p.Need > 0 {
			if err = g.Await(&g.w, p); err == nil {
				ret, err = g.Commit(lead, p)
			}
		}
		if err != nil || ret != 0 {
			t.Fatalf("client %d retry = %d, %v", client, ret, err)
		}
	}

	// Client 1: the wait times out, then the retry appends a second copy.
	r1.mode.Store(frSilent)
	r2.mode.Store(frSilent)
	_, p1, err := g.Append(lead, 1, 1, sets(1, 10, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-awaitAsync(g, p1); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("silent remotes: Await = %v, want ErrNoQuorum", err)
	}
	r1.mode.Store(frAck)
	retry(1, sets(1, 10, 2, 20))
	if st := g.Stats(); st.ApplyDups != 2 || st.LogLast != 4 {
		t.Fatalf("second copy: %+v", st)
	}

	// Client 2: the wait fails, a younger run commits past it, and the
	// retry is a ledger hit.
	r1.mode.Store(frNack)
	_, p2, err := g.Append(lead, 2, 1, sets(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-awaitAsync(g, p2); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("refused: Await = %v, want ErrNoQuorum", err)
	}
	r1.mode.Store(frAck)
	retry(3, sets(4, 40))
	hits := g.Stats().LedgerHits
	retry(2, sets(3, 30))
	if st := g.Stats(); st.LedgerHits != hits+1 || st.LogLast != 6 || st.NoQuorum != 2 {
		t.Fatalf("ledger-hit retry: %+v", st)
	}
	if m.dups != 0 || m.m[1] != 10 || m.m[3] != 30 || m.m[4] != 40 {
		t.Fatalf("dups=%d state=%v", m.dups, m.m)
	}
}
