package reptrans

import (
	"io"
	"net"
	"testing"
	"time"

	"ffwd/internal/replica"
)

// A peer whose follower is unreachable answers ack-wanted Replicate
// calls immediately — the leader pays a channel send, not a timeout.
func TestPeerFailFastWhenDown(t *testing.T) {
	p := NewPeer(PeerConfig{
		ID:     7,
		Addr:   "127.0.0.1:1", // nothing listens here
		Leader: nopLeader{},
		Seed:   1,
	})
	defer p.Close()
	if p.Healthy() {
		t.Fatalf("unreachable peer reports healthy")
	}
	done := make(chan replica.RemoteAck, 1)
	start := time.Now()
	p.Replicate(1, 0, done)
	select {
	case a := <-done:
		if a.OK || a.ID != 7 {
			t.Fatalf("ack: %+v", a)
		}
	case <-time.After(time.Second):
		t.Fatalf("no fail-fast nack")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("nack took %v", d)
	}
	if p.Stats().Nacks != 1 {
		t.Fatalf("stats: %+v", p.Stats())
	}
}

type nopLeader struct{}

func (nopLeader) FrameFor(uint64, []replica.Entry) replica.LeaderFrame { return replica.LeaderFrame{} }
func (nopLeader) Term() uint64                                         { return 1 }

// An ack tagged with a retired session epoch must not resolve a pending
// frame from the live session: it is counted as stale and dropped. This
// pins the leader half of the session fence deterministically, without
// racing a real reconnect.
func TestPeerDropsStaleEpochAck(t *testing.T) {
	done := make(chan replica.RemoteAck, 1)
	p := &Peer{
		cfg:     PeerConfig{ID: 3, Leader: nopLeader{}, HeartbeatTimeout: time.Second},
		pending: map[uint64]inflight{9: {req: request{index: 5, done: done}}},
		epoch:   4,
	}
	p.conn = nopConn{}

	// Epoch 3 is a retired session: its ack for seq 9 must be ignored
	// even though the seq matches a live pending frame.
	if keep := p.handleAck(ackMsg{epoch: 3, ack: appendAck{Seq: 9, OK: true, Match: 5, Term: 1}}); !keep {
		t.Fatalf("stale ack tore down the link")
	}
	if p.nStale.Load() != 1 {
		t.Fatalf("StaleAcks = %d, want 1", p.nStale.Load())
	}
	if len(p.pending) != 1 {
		t.Fatalf("stale ack resolved the pending frame")
	}
	select {
	case a := <-done:
		t.Fatalf("stale ack delivered %+v to the proposer", a)
	default:
	}

	// The live epoch's ack resolves it.
	if keep := p.handleAck(ackMsg{epoch: 4, ack: appendAck{Seq: 9, OK: true, Match: 5, Term: 1}}); !keep {
		t.Fatalf("live ack tore down the link")
	}
	a := <-done
	if !a.OK || a.Index != 5 {
		t.Fatalf("live ack delivered %+v", a)
	}
	if p.nextIndex != 6 || len(p.pending) != 0 {
		t.Fatalf("nextIndex=%d pending=%d after live ack", p.nextIndex, len(p.pending))
	}
}

// nopConn satisfies net.Conn for manager-state unit tests that never
// touch the wire.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (nopConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// Backoff grows from BackoffMin toward BackoffMax with jitter in
// [d/2, d), and resets after a successful session.
func TestPeerBackoffShape(t *testing.T) {
	p := &Peer{cfg: PeerConfig{BackoffMin: 10 * time.Millisecond, BackoffMax: 640 * time.Millisecond}, rng: 42}
	prevCap := time.Duration(0)
	for i := 0; i < 12; i++ {
		attempt := p.attempt
		d := p.backoff()
		capd := p.cfg.BackoffMin << uint(attempt)
		if capd <= 0 || capd > p.cfg.BackoffMax {
			capd = p.cfg.BackoffMax
		}
		if d < capd/2 || d >= capd {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, capd/2, capd)
		}
		if capd < prevCap {
			t.Fatalf("backoff cap shrank: %v after %v", capd, prevCap)
		}
		prevCap = capd
	}
	if prevCap != p.cfg.BackoffMax {
		t.Fatalf("backoff never reached the cap: %v", prevCap)
	}
}
