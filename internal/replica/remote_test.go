package replica

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRemote is a scriptable cross-process follower: it acks or refuses
// Replicate calls according to its mode, tracking what it saw.
type fakeRemote struct {
	id      int
	mode    atomic.Int32 // 0 = ack, 1 = nack, 2 = never answer
	acked   atomic.Uint64
	commits atomic.Uint64
	pushes  atomic.Uint64
}

const (
	frAck int32 = iota
	frNack
	frSilent
)

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
