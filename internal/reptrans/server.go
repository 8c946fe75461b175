package reptrans

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// ServerConfig configures a follower-side transport server.
type ServerConfig struct {
	// Member is the replication state this server feeds. The server
	// serializes all access to it behind one mutex.
	Member *replica.Member
	// Store, when set, persists term advances observed in Hellos. The
	// member's own durable appends go through its attached storage; this
	// is only for the term word.
	Store replica.Storage
	// ReadTimeout is the per-frame read deadline. The leader heartbeats
	// well inside it, so an expiry means the link (or the leader) is
	// dead and the connection is reaped. 0 means 15s.
	ReadTimeout time.Duration
	// WriteTimeout bounds one ack write. 0 means 5s.
	WriteTimeout time.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// ServerStats is a point-in-time counter snapshot of a Server.
type ServerStats struct {
	Sessions       uint64 // hellos admitted
	RejectedHellos uint64 // hellos refused (stale epoch or stale term)
	Appends        uint64 // append frames processed
	AppendNacks    uint64 // appends answered matched=false
	SnapInstalls   uint64 // snapshot frames installed
	ConnErrors     uint64 // connections dropped on read/parse/storage errors
}

// Server is the follower half of the replication transport: it accepts
// leader connections, admits at most one live session by (term, epoch),
// and feeds admitted append/snapshot frames to its Member durably
// before acking.
//
// Session admission is the stale-leader fence: a Hello is admitted only
// when its term is higher than the current session's, or equal with a
// higher epoch. Admission retires the previous session by closing its
// connection, and retired connections are refused service even if a
// frame of theirs is already buffered — a stale reconnect can never ack
// into a newer session's stream.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu       sync.Mutex // guards member access and admission state
	curTerm  uint64
	curEpoch uint64
	curConn  net.Conn

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closed atomic.Bool
	wg     sync.WaitGroup

	nSessions atomic.Uint64
	nRejects  atomic.Uint64
	nAppends  atomic.Uint64
	nNacks    atomic.Uint64
	nSnaps    atomic.Uint64
	nConnErrs atomic.Uint64
}

// NewServer starts serving on ln. Close stops it.
func NewServer(ln net.Listener, cfg ServerConfig) *Server {
	if cfg.Member == nil {
		panic("reptrans: ServerConfig.Member is required")
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 15 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	s := &Server{cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the listen address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// MemberState reports the member's log/commit/apply cursors under the
// server's serialization, for stats endpoints and tests.
func (s *Server) MemberState() (last, commit, applied uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.cfg.Member
	return m.LastIndex(), m.Commit(), m.AppliedIndex()
}

// Stats returns a counter snapshot.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Sessions:       s.nSessions.Load(),
		RejectedHellos: s.nRejects.Load(),
		Appends:        s.nAppends.Load(),
		AppendNacks:    s.nNacks.Load(),
		SnapInstalls:   s.nSnaps.Load(),
		ConnErrors:     s.nConnErrs.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return
			}
			s.logf("reptrans server: accept: %v", err)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	c.Close()
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(c)
	if err := s.serveConn(c); err != nil && !s.closed.Load() {
		s.nConnErrs.Add(1)
		s.logf("reptrans server: %v: %v", c.RemoteAddr(), err)
	}
}

func (s *Server) serveConn(c net.Conn) error {
	mr := newMsgReader(c)
	c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	f, err := mr.read()
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if f.typ != frameHello {
		return fmt.Errorf("first frame is type %d, want hello", f.typ)
	}
	ack, admitted := s.admit(c, f.hello)
	if err := s.writeAck(c, encodeHelloAck(nil, ack)); err != nil {
		return err
	}
	if !admitted {
		return nil // polite rejection, not an error
	}
	defer s.retire(c)
	var buf []byte
	for {
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		f, err := mr.read()
		if err != nil {
			if s.isRetired(c) {
				return nil // superseded mid-read; the close is expected
			}
			return err
		}
		buf, err = s.handleFrame(c, f, buf[:0])
		if err != nil {
			return err
		}
	}
}

// admit runs session admission for h arriving on c. It returns the
// helloAck to send and whether the session was admitted.
func (s *Server) admit(c net.Conn, h hello) (helloAck, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := h.Term > s.curTerm || (h.Term == s.curTerm && h.Epoch > s.curEpoch)
	if !ok {
		s.nRejects.Add(1)
		return helloAck{OK: false, Epoch: s.curEpoch, Term: s.curTerm, LastIndex: s.cfg.Member.LastIndex()}, false
	}
	if s.curConn != nil && s.curConn != c {
		// Retire the superseded session. Its handler sees the close and
		// exits; isRetired suppresses the error it would otherwise report.
		s.curConn.Close()
	}
	if h.Term > s.curTerm && s.cfg.Store != nil {
		if err := s.cfg.Store.SaveTerm(h.Term); err != nil {
			s.logf("reptrans server: persisting term %d: %v", h.Term, err)
		}
	}
	s.curTerm, s.curEpoch, s.curConn = h.Term, h.Epoch, c
	s.nSessions.Add(1)
	return helloAck{OK: true, Epoch: h.Epoch, Term: h.Term, LastIndex: s.cfg.Member.LastIndex()}, true
}

func (s *Server) retire(c net.Conn) {
	s.mu.Lock()
	if s.curConn == c {
		s.curConn = nil
	}
	s.mu.Unlock()
}

func (s *Server) isRetired(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curConn != c
}

// handleFrame processes one admitted-session frame and writes its ack.
// buf is a reusable encode buffer; the (possibly grown) buffer is
// returned for the next frame.
func (s *Server) handleFrame(c net.Conn, f msg, buf []byte) ([]byte, error) {
	var seq, term uint64
	var ack appendAck
	s.mu.Lock()
	if s.curConn != c {
		// Retired while the frame was in flight: refuse to touch the
		// member on a stale session's behalf.
		s.mu.Unlock()
		return buf, fmt.Errorf("session retired")
	}
	switch f.typ {
	case frameAppend:
		seq, term = f.app.Seq, f.app.Term
		s.nAppends.Add(1)
		if term < s.curTerm {
			ack = appendAck{Seq: seq, OK: false, Match: 0, Term: s.curTerm}
			s.nNacks.Add(1)
			break
		}
		matched, hint, err := s.cfg.Member.HandleAppend(f.app.PrevIndex, f.app.PrevTerm, f.app.Entries, f.app.Commit)
		if err != nil {
			// Storage failure: acking would lie about durability. Drop the
			// connection so the leader re-probes.
			s.mu.Unlock()
			return buf, fmt.Errorf("append at prev %d: %w", f.app.PrevIndex, err)
		}
		if !matched {
			s.nNacks.Add(1)
		}
		ack = appendAck{Seq: seq, OK: matched, Match: hint, Term: s.curTerm}
	case frameSnap:
		seq, term = f.snap.Seq, f.snap.Term
		if term < s.curTerm {
			ack = appendAck{Seq: seq, OK: false, Match: 0, Term: s.curTerm}
			s.nNacks.Add(1)
			break
		}
		snap, err := replog.DecodeSnapshot(f.snap.Data)
		if err != nil {
			s.mu.Unlock()
			return buf, fmt.Errorf("decoding snapshot: %w", err)
		}
		if err := s.cfg.Member.InstallSnap(snap); err != nil {
			s.mu.Unlock()
			return buf, fmt.Errorf("installing snapshot at %d: %w", snap.LastIndex, err)
		}
		s.nSnaps.Add(1)
		ack = appendAck{Seq: seq, OK: true, Match: snap.LastIndex, Term: s.curTerm}
	default:
		s.mu.Unlock()
		return buf, fmt.Errorf("unexpected frame type %d in session", f.typ)
	}
	s.mu.Unlock()
	buf = encodeAppendAck(buf, ack)
	return buf, s.writeAck(c, buf)
}

func (s *Server) writeAck(c net.Conn, frame []byte) error {
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, err := c.Write(frame)
	return err
}
