package reptrans

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/replica"
)

// tapLeader is a LeaderRef that counts the entries its frames ship and,
// while a gate is set, holds the peer's manager inside FrameFor.
type tapLeader struct {
	LeaderRef
	shipped atomic.Uint64
	mu      sync.Mutex
	gate    chan struct{}
}

func (l *tapLeader) FrameFor(ni uint64, buf []replica.Entry) replica.LeaderFrame {
	l.mu.Lock()
	gate := l.gate
	l.mu.Unlock()
	if gate != nil {
		<-gate
	}
	fr := l.LeaderRef.FrameFor(ni, buf)
	if fr.Snap == nil {
		l.shipped.Add(uint64(len(fr.Entries)))
	}
	return fr
}

func (l *tapLeader) hold() {
	l.mu.Lock()
	l.gate = make(chan struct{})
	l.mu.Unlock()
}

func (l *tapLeader) open() {
	l.mu.Lock()
	close(l.gate)
	l.gate = nil
	l.mu.Unlock()
}

// pipeRig is a leader group with one remote follower over a socket. The
// follower's member is in memory; heartbeats are off, so every frame on
// the link answers a Replicate.
type pipeRig struct {
	g    *replica.Group
	lead *replica.Replica
	tap  *tapLeader
	peer *Peer
	srv  *Server
}

func newPipeRig(t *testing.T, term uint64, follower *replica.Member) *pipeRig {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, ServerConfig{Member: follower, Logf: t.Logf})
	t.Cleanup(func() { srv.Close() })
	tap := &tapLeader{LeaderRef: LeaderRef{InitialTerm: term}}
	peer := NewPeer(PeerConfig{ID: 101, Addr: srv.Addr().String(), Leader: tap, HeartbeatEvery: time.Hour, Seed: 1, Logf: t.Logf})
	t.Cleanup(peer.Close)
	g, err := replica.NewGroup(replica.GroupConfig{
		Replicas:   1,
		NewMachine: func() replica.StateMachine { return newTmach() },
		Term:       term,
		Remotes:    []replica.Remote{peer},
		AckTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tap.Set(g)
	waitFor(t, "peer connected", peer.Healthy)
	lead, _ := g.Leader()
	return &pipeRig{g: g, lead: lead, tap: tap, peer: peer, srv: srv}
}

// appendRun appends one client's run of sets key=val for keys
// first..first+n-1, which must wait on the remote.
func (r *pipeRig) appendRun(t *testing.T, client, first, n uint64) replica.Pending {
	t.Helper()
	ws := make([]replica.Write, n)
	for i := range ws {
		k := first + uint64(i)
		ws[i] = replica.Write{Kind: replica.OpSet, Key: k, Val: k * 3}
	}
	_, p, err := r.g.Append(r.lead, client, 1, ws)
	if err != nil || p.Need != 1 {
		t.Fatalf("Append client %d = %+v, %v; want pending on the remote", client, p, err)
	}
	return p
}

func (r *pipeRig) await(p replica.Pending) <-chan error {
	done := make(chan error, 1)
	go func() {
		var w replica.AckWaiter
		done <- r.g.Await(&w, p)
	}()
	return done
}

// Runs appended and replicated while earlier frames are still unacked
// ship each entry once: the sent cursor, not the ack-driven next index,
// says where a frame starts.
func TestPipelinedReplicateShipsEachEntryOnce(t *testing.T) {
	rig := newPipeRig(t, 1, replica.NewMember(newTmach(), 0, nil))
	const runs, per = 5, 4
	rig.srv.mu.Lock() // the follower acks nothing until every run is shipped
	var ps []replica.Pending
	var dones []<-chan error
	for i := uint64(0); i < runs; i++ {
		p := rig.appendRun(t, i+1, i*per+1, per)
		ps, dones = append(ps, p), append(dones, rig.await(p))
		waitFor(t, "frame written", func() bool { return rig.peer.Stats().Frames == i+1 })
	}
	rig.srv.mu.Unlock()
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Fatalf("Await run %d: %v", i, err)
		}
		if _, err := rig.g.Commit(rig.lead, ps[i]); err != nil {
			t.Fatalf("Commit run %d: %v", i, err)
		}
	}
	if shipped, commits := rig.tap.shipped.Load(), rig.g.Stats().Commits; shipped != runs*per || commits != runs*per {
		t.Fatalf("shipped %d entries for %d commits, want %d each", shipped, commits, runs*per)
	}
}

// A consistency nack on pipelined frames resets the sent cursor to what
// the follower vouches for: the follower's stale entries from an older
// term are replaced, every wait succeeds, and the follower converges.
func TestPeerConsistencyNackResetsSentCursor(t *testing.T) {
	sm := newTmach()
	m := replica.NewMember(sm, 0, nil)
	var stale []replica.Entry
	for i := uint64(1); i <= 3; i++ {
		stale = append(stale, replica.Entry{Index: i, Term: 1, ClientID: 9, Seq: i, Kind: replica.OpSet, Key: 100 + i, Val: 1})
	}
	if ok, _, err := m.HandleAppend(0, 0, stale, 0); !ok || err != nil {
		t.Fatalf("seeding the stale log: %v, %v", ok, err)
	}
	rig := newPipeRig(t, 2, m)
	rig.srv.mu.Lock()
	var ps []replica.Pending
	var dones []<-chan error
	for i := uint64(0); i < 2; i++ {
		p := rig.appendRun(t, i+1, i*4+1, 4)
		ps, dones = append(ps, p), append(dones, rig.await(p))
		waitFor(t, "frame written", func() bool { return rig.peer.Stats().Frames == i+1 })
	}
	rig.srv.mu.Unlock()
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Fatalf("Await run %d: %v", i, err)
		}
		if _, err := rig.g.Commit(rig.lead, ps[i]); err != nil {
			t.Fatalf("Commit run %d: %v", i, err)
		}
	}
	if st := rig.peer.Stats(); st.Retries == 0 || st.Nacks != 0 {
		t.Fatalf("peer stats %+v: want consistency retries and no refused waits", st)
	}
	// One more run carries the commit cursor to the follower.
	p := rig.appendRun(t, 3, 9, 1)
	if err := <-rig.await(p); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower applied 8", func() bool {
		_, _, applied := rig.srv.MemberState()
		return applied >= 8
	})
	if err := checkState(sm, 8); err != nil {
		t.Fatal(err)
	}
	for k := uint64(101); k <= 103; k++ {
		if _, ok := sm.m[k]; ok {
			t.Fatalf("the follower applied stale key %d", k)
		}
	}
}

// More concurrent waits than the peer's queue holds, on a healthy link
// whose manager is busy: every Replicate waits its turn, and no wait is
// refused.
func TestReplicateWaitsOnBusyHealthyLink(t *testing.T) {
	rig := newPipeRig(t, 1, replica.NewMember(newTmach(), 0, nil))
	const n = 100
	ps := make([]replica.Pending, n)
	for i := range ps {
		ps[i] = rig.appendRun(t, uint64(i+1), uint64(i+1), 1)
	}
	rig.tap.hold()
	dones := make([]<-chan error, n)
	for i, p := range ps {
		dones[i] = rig.await(p)
	}
	waitFor(t, "queue full", func() bool { return len(rig.peer.reqCh) == cap(rig.peer.reqCh) })
	time.Sleep(20 * time.Millisecond) // the rest reach Replicate
	rig.tap.open()
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Fatalf("Await %d: %v", i, err)
		}
	}
	if nacks, remote := rig.peer.Stats().Nacks, rig.g.Stats().RemoteNacks; nacks != 0 || remote != 0 {
		t.Fatalf("%d peer nacks, %d remote nacks on a healthy link, want 0", nacks, remote)
	}
}
