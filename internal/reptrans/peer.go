package reptrans

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// Leader is what a Peer needs from the leader it replicates for,
// satisfied structurally by replica.Group.
type Leader interface {
	// FrameFor builds the append frame for a follower whose next expected
	// index is ni: consistency-check point, the entry suffix copied into
	// buf[:0], snapshot when ni is inside truncated history, and the
	// commit cursor.
	FrameFor(ni uint64, buf []replica.Entry) replica.LeaderFrame
	// Term is the leader's current term.
	Term() uint64
}

// PeerConfig configures one leader→follower link.
type PeerConfig struct {
	// ID is the remote member's stable id, reported in acks and stats.
	ID int
	// Addr is the follower server's TCP address.
	Addr string
	// Leader serves log frames and the current term.
	Leader Leader

	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write (default 5s).
	WriteTimeout time.Duration
	// HelloTimeout bounds the wait for a HelloAck (default 2s).
	HelloTimeout time.Duration
	// HeartbeatEvery is the idle append cadence; heartbeats carry the
	// commit cursor and double as catch-up probes (default 250ms).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long the link may go without any follower
	// response before it is declared dead and redialed (default 3s).
	HeartbeatTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered reconnect backoff
	// (defaults 20ms and 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed seeds the backoff jitter; links should use distinct seeds so a
	// restarted follower is not redialed in lockstep.
	Seed uint64
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// PeerStats is a point-in-time counter snapshot of a Peer.
type PeerStats struct {
	Dials        uint64 // connection attempts
	Sessions     uint64 // hellos admitted by the follower
	HelloRejects uint64 // hellos the follower refused (stale epoch/term)
	StaleAcks    uint64 // acks dropped because their session was retired
	Nacks        uint64 // Replicate calls answered not-OK
	Frames       uint64 // append and snapshot frames written (heartbeats included)
	Retries      uint64 // append frames re-sent after a consistency nack
}

// request is one Replicate call queued to the manager.
type request struct {
	index uint64
	done  chan<- replica.RemoteAck
}

// inflight is one wire frame awaiting its ack.
type inflight struct {
	req      request
	attempts int
}

// ackMsg is an ack as read off a connection, tagged with the session
// epoch of the connection that produced it so acks from retired
// sessions are discarded instead of resolving newer frames.
type ackMsg struct {
	epoch uint64
	ack   appendAck
}

// Peer is the leader half of one replication link: a replica.Remote
// that ships log frames to a follower Server over TCP, with session
// epochs, pipelined acks, heartbeats, and capped jittered reconnect
// backoff. One manager goroutine owns the connection and all mutable
// state; a per-connection reader goroutine feeds it acks.
type Peer struct {
	cfg     PeerConfig
	reqCh   chan request
	ackCh   chan ackMsg
	errCh   chan uint64 // epoch of the connection that failed
	closeCh chan struct{}
	wg      sync.WaitGroup

	connected   atomic.Bool
	lastContact atomic.Int64 // unix nanos of the last follower response

	// Manager-owned state; no lock, only the run goroutine touches it.
	conn      net.Conn
	epoch     uint64 // session epoch, bumped on every dial
	nextIndex uint64 // first index the follower has not acked
	// sent is the first index not yet shipped on this session: frames go
	// out from max(nextIndex, sent), so a Replicate made while an earlier
	// frame is in flight ships only what that frame did not. A
	// consistency nack and a reconnect reset it to nextIndex.
	sent    uint64
	seq     uint64
	pending map[uint64]inflight
	attempt int // consecutive failed dials, drives backoff
	rng     uint64
	ents    []replica.Entry // FrameFor's suffix copy, reused frame to frame
	wbuf    []byte          // frame encode buffer, likewise

	nDials    atomic.Uint64
	nSessions atomic.Uint64
	nRejects  atomic.Uint64
	nStale    atomic.Uint64
	nNacks    atomic.Uint64
	nRetries  atomic.Uint64
	nFrames   atomic.Uint64
}

// maxFrameAttempts bounds the consistency-probe retry walk for one
// frame. The walk strictly descends, so hitting the bound means the
// follower is answering nonsense; nack and let the link heal it.
const maxFrameAttempts = 64

// NewPeer starts the link manager; it dials immediately and keeps the
// link alive until Close.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.Leader == nil {
		panic("reptrans: PeerConfig.Leader is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 2 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	p := &Peer{
		cfg:     cfg,
		reqCh:   make(chan request, 64),
		ackCh:   make(chan ackMsg, 64),
		errCh:   make(chan uint64, 4),
		closeCh: make(chan struct{}),
		pending: make(map[uint64]inflight),
		rng:     cfg.Seed ^ 0x9e3779b97f4a7c15,
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// ID implements replica.Remote.
func (p *Peer) ID() int { return p.cfg.ID }

// Healthy implements replica.Remote: connected and heard from the
// follower within the heartbeat window.
func (p *Peer) Healthy() bool {
	if !p.connected.Load() {
		return false
	}
	last := time.Unix(0, p.lastContact.Load())
	return time.Since(last) <= p.cfg.HeartbeatTimeout
}

// Replicate implements replica.Remote. When the link is down an
// ack-wanted call is answered with an immediate nack, so a dead follower
// costs the caller a channel send rather than a timeout. While it is
// up, a full queue blocks the caller until the manager takes the request
// or the peer closes: a busy healthy link is not a refusal.
func (p *Peer) Replicate(index, commit uint64, done chan<- replica.RemoteAck) {
	_ = commit // the frame re-reads the live commit cursor via FrameFor
	if !p.connected.Load() {
		p.nack(done)
		return
	}
	select {
	case p.reqCh <- request{index: index, done: done}:
	case <-p.closeCh:
		p.nack(done)
	}
}

// Close tears the link down and stops the manager.
func (p *Peer) Close() {
	close(p.closeCh)
	p.wg.Wait()
}

// Stats returns a counter snapshot.
func (p *Peer) Stats() PeerStats {
	return PeerStats{
		Dials:        p.nDials.Load(),
		Sessions:     p.nSessions.Load(),
		HelloRejects: p.nRejects.Load(),
		StaleAcks:    p.nStale.Load(),
		Nacks:        p.nNacks.Load(),
		Retries:      p.nRetries.Load(),
		Frames:       p.nFrames.Load(),
	}
}

func (p *Peer) nack(done chan<- replica.RemoteAck) {
	if done == nil {
		return
	}
	p.nNacks.Add(1)
	done <- replica.RemoteAck{ID: p.cfg.ID, OK: false}
}

func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// splitmix64 jitter source; deterministic per seed.
func (p *Peer) rand() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backoff returns the next reconnect delay: exponential from BackoffMin
// capped at BackoffMax, jittered to [d/2, d).
func (p *Peer) backoff() time.Duration {
	d := p.cfg.BackoffMin << uint(minInt(p.attempt, 30))
	if d <= 0 || d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	p.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(p.rand()%uint64(half))
}

func (p *Peer) run() {
	defer p.wg.Done()
	reconnect := time.NewTimer(0)
	defer reconnect.Stop()
	hb := time.NewTicker(p.cfg.HeartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case <-p.closeCh:
			p.dropConn()
			return
		case <-reconnect.C:
			if p.conn == nil {
				if !p.connect() {
					reconnect.Reset(p.backoff())
				}
			}
		case req := <-p.reqCh:
			if p.conn == nil {
				p.nack(req.done)
				continue
			}
			if !p.send(req, 0) {
				p.dropConn()
				reconnect.Reset(p.backoff())
			}
		case am := <-p.ackCh:
			if !p.handleAck(am) {
				p.dropConn()
				reconnect.Reset(p.backoff())
			}
		case epoch := <-p.errCh:
			if p.conn != nil && epoch == p.epoch {
				p.dropConn()
				reconnect.Reset(p.backoff())
			}
		case <-hb.C:
			if p.conn == nil {
				continue
			}
			if time.Since(time.Unix(0, p.lastContact.Load())) > p.cfg.HeartbeatTimeout {
				p.logf("reptrans peer %d: heartbeat timeout", p.cfg.ID)
				p.dropConn()
				reconnect.Reset(p.backoff())
				continue
			}
			// Idle append: carries the live commit cursor and, if the
			// follower is behind, the missing suffix.
			if !p.send(request{}, 0) {
				p.dropConn()
				reconnect.Reset(p.backoff())
			}
		}
	}
}

// dropConn closes the connection and fails every pending frame; their
// acks, if still in flight, will be dropped by the epoch check.
func (p *Peer) dropConn() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.connected.Store(false)
	for seq, infl := range p.pending {
		delete(p.pending, seq)
		p.nack(infl.req.done)
	}
}

// connect dials, performs the Hello handshake under a fresh session
// epoch, and on admission starts the reader goroutine.
func (p *Peer) connect() bool {
	p.nDials.Add(1)
	p.epoch++
	epoch := p.epoch
	c, err := net.DialTimeout("tcp", p.cfg.Addr, p.cfg.DialTimeout)
	if err != nil {
		p.logf("reptrans peer %d: dial %s: %v", p.cfg.ID, p.cfg.Addr, err)
		return false
	}
	c.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if _, err := c.Write(encodeHello(nil, hello{Epoch: epoch, Term: p.cfg.Leader.Term()})); err != nil {
		c.Close()
		return false
	}
	mr := newMsgReader(c)
	c.SetReadDeadline(time.Now().Add(p.cfg.HelloTimeout))
	f, err := mr.read()
	if err != nil || f.typ != frameHelloAck {
		p.logf("reptrans peer %d: hello ack: %v", p.cfg.ID, err)
		c.Close()
		return false
	}
	if !f.helloAck.OK {
		p.nRejects.Add(1)
		p.logf("reptrans peer %d: hello rejected (follower at term %d epoch %d)",
			p.cfg.ID, f.helloAck.Term, f.helloAck.Epoch)
		c.Close()
		return false
	}
	c.SetReadDeadline(time.Time{})
	p.conn = c
	p.nextIndex = f.helloAck.LastIndex + 1
	p.sent = p.nextIndex
	p.attempt = 0
	p.lastContact.Store(time.Now().UnixNano())
	p.connected.Store(true)
	p.nSessions.Add(1)
	p.wg.Add(1)
	go p.readLoop(mr, epoch)
	return true
}

// readLoop reads acks off one connection and forwards them tagged with
// that connection's epoch. It exits on any read error, reporting the
// epoch so the manager redials only if this is still the live session.
func (p *Peer) readLoop(mr *msgReader, epoch uint64) {
	defer p.wg.Done()
	for {
		f, err := mr.read()
		if err != nil {
			select {
			case p.errCh <- epoch:
			case <-p.closeCh:
			}
			return
		}
		if f.typ != frameAppendAck {
			select {
			case p.errCh <- epoch:
			case <-p.closeCh:
			}
			return
		}
		select {
		case p.ackCh <- ackMsg{epoch: epoch, ack: f.ack}:
		case <-p.closeCh:
			return
		}
	}
}

// send frames the log suffix the follower has not been sent (snapshot
// first when it is behind truncated history) and registers the pending
// ack. req.index of 0 is a heartbeat/push. Returns false on a write
// failure.
func (p *Peer) send(req request, attempts int) bool {
	fr := p.cfg.Leader.FrameFor(max(p.nextIndex, p.sent), p.ents)
	p.ents = fr.Entries[:0]
	p.sent = fr.PrevIndex + 1
	p.seq++
	p.pending[p.seq] = inflight{req: req, attempts: attempts}
	if fr.Snap != nil {
		// The follower needs history the leader no longer holds: install
		// the snapshot first. Its ack advances nextIndex past the
		// boundary and the retry path ships the remaining suffix.
		p.wbuf = encodeSnap(p.wbuf[:0], snapFrame{Seq: p.seq, Term: fr.Term, Data: replog.EncodeSnapshot(fr.Snap)})
	} else {
		p.sent += uint64(len(fr.Entries))
		p.wbuf = encodeAppend(p.wbuf[:0], appendFrame{
			Seq:       p.seq,
			Term:      fr.Term,
			PrevIndex: fr.PrevIndex,
			PrevTerm:  fr.PrevTerm,
			Commit:    fr.Commit,
			Entries:   fr.Entries,
		})
	}
	p.nFrames.Add(1)
	p.conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	_, err := p.conn.Write(p.wbuf)
	if fr.Snap != nil {
		p.wbuf = nil // do not keep a whole state image's worth of buffer
	}
	if err != nil {
		p.logf("reptrans peer %d: write: %v", p.cfg.ID, err)
		return false
	}
	return true
}

// handleAck resolves one ack against the pending frame it answers.
// Acks from retired sessions are counted and dropped. Returns false
// when the link must be torn down (follower fenced us with a higher
// term).
func (p *Peer) handleAck(am ackMsg) bool {
	if p.conn == nil || am.epoch != p.epoch {
		p.nStale.Add(1)
		return true
	}
	p.lastContact.Store(time.Now().UnixNano())
	infl, ok := p.pending[am.ack.Seq]
	if !ok {
		return true // pending set was cleared by a drop; nothing to resolve
	}
	delete(p.pending, am.ack.Seq)
	if am.ack.Term > p.cfg.Leader.Term() {
		// A newer leader incarnation exists; this process is a zombie for
		// that follower. Fail the request and drop the link — reconnect
		// attempts will keep being rejected, which is correct.
		p.nack(infl.req.done)
		return false
	}
	if am.ack.OK {
		if am.ack.Match+1 > p.nextIndex {
			p.nextIndex = am.ack.Match + 1
		}
		if infl.req.done != nil {
			if am.ack.Match >= infl.req.index {
				infl.req.done <- replica.RemoteAck{ID: p.cfg.ID, Index: am.ack.Match, OK: true}
			} else {
				p.nack(infl.req.done)
			}
		}
		return true
	}
	// Consistency nack: the follower vouches only through Match. Probe
	// from there. The walk is finite (Match strictly below the refused
	// prev), but bound it against a byzantine follower.
	p.nextIndex = am.ack.Match + 1
	p.sent = p.nextIndex
	if infl.attempts+1 >= maxFrameAttempts {
		p.nack(infl.req.done)
		return true
	}
	p.nRetries.Add(1)
	if !p.send(infl.req, infl.attempts+1) {
		return false
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
