package reptrans

import (
	"encoding/binary"
	"net"
	"sort"
	"testing"
	"time"

	"ffwd/internal/replica"
)

// tmach is a deterministic map machine for transport tests.
type tmach struct {
	m map[uint64]uint64
}

func newTmach() *tmach { return &tmach{m: make(map[uint64]uint64)} }

func (s *tmach) Apply(e replica.Entry) uint64 {
	switch e.Kind {
	case replica.OpSet:
		s.m[e.Key] = e.Val
		return 0
	case replica.OpDel:
		if _, ok := s.m[e.Key]; ok {
			delete(s.m, e.Key)
			return 1
		}
		return 0
	}
	return ^uint64(0)
}

func (s *tmach) Snapshot() []byte {
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

func (s *tmach) Restore(data []byte) {
	s.m = make(map[uint64]uint64, len(data)/16)
	for off := 0; off+16 <= len(data); off += 16 {
		s.m[binary.LittleEndian.Uint64(data[off:])] = binary.LittleEndian.Uint64(data[off+8:])
	}
}

func startTestServer(t *testing.T) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(ln, ServerConfig{
		Member:      replica.NewMember(newTmach(), 0, nil),
		ReadTimeout: 2 * time.Second,
		Logf:        t.Logf,
	})
	t.Cleanup(func() { s.Close() })
	return s
}

// dialHello opens a raw connection and performs the handshake, returning
// the connection and the follower's verdict.
func dialHello(t *testing.T, addr string, epoch, term uint64) (net.Conn, helloAck) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Write(encodeHello(nil, hello{Epoch: epoch, Term: term})); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := readMsg(c)
	if err != nil || f.typ != frameHelloAck {
		t.Fatalf("hello ack: %+v, %v", f, err)
	}
	c.SetReadDeadline(time.Time{})
	return c, f.helloAck
}

// The acceptance-criterion admission matrix: a reconnect is admitted
// only with a strictly newer (term, epoch), and admission retires the
// superseded session.
func TestStaleEpochReconnectRejected(t *testing.T) {
	s := startTestServer(t)
	addr := s.Addr().String()

	connA, ack := dialHello(t, addr, 5, 1)
	defer connA.Close()
	if !ack.OK {
		t.Fatalf("first hello rejected: %+v", ack)
	}

	// A newer epoch at the same term supersedes A.
	connB, ack := dialHello(t, addr, 7, 1)
	defer connB.Close()
	if !ack.OK {
		t.Fatalf("newer-epoch hello rejected: %+v", ack)
	}

	// A's session was retired: the server closed its connection, so the
	// stale session cannot push frames into the new one.
	connA.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readMsg(connA); err == nil {
		t.Fatalf("retired connection still served a frame")
	}

	// A stale epoch from before the reconnect is refused.
	connC, ack := dialHello(t, addr, 6, 1)
	defer connC.Close()
	if ack.OK {
		t.Fatalf("stale epoch 6 admitted over live epoch 7")
	}
	if ack.Epoch != 7 || ack.Term != 1 {
		t.Fatalf("rejection did not echo the live session: %+v", ack)
	}
	// So is a duplicate of the live epoch.
	connD, ack := dialHello(t, addr, 7, 1)
	defer connD.Close()
	if ack.OK {
		t.Fatalf("duplicate epoch admitted")
	}

	// A higher term (leader rebooted) resets the epoch space.
	connE, ack := dialHello(t, addr, 1, 2)
	defer connE.Close()
	if !ack.OK {
		t.Fatalf("new-term hello rejected: %+v", ack)
	}
	// And the old term is now fenced outright, any epoch.
	connF, ack := dialHello(t, addr, 100, 1)
	defer connF.Close()
	if ack.OK {
		t.Fatalf("stale term admitted")
	}

	st := s.Stats()
	if st.Sessions != 3 || st.RejectedHellos != 3 {
		t.Fatalf("sessions=%d rejects=%d, want 3/3", st.Sessions, st.RejectedHellos)
	}
}

// An admitted session replicates: appends are applied through the
// member, acks report the matched index, and a consistency gap is
// answered with a probe hint instead of an ack.
func TestServerAppendAndProbe(t *testing.T) {
	s := startTestServer(t)
	conn, ack := dialHello(t, s.Addr().String(), 1, 1)
	defer conn.Close()
	if !ack.OK || ack.LastIndex != 0 {
		t.Fatalf("hello: %+v", ack)
	}

	send := func(fr appendFrame) appendAck {
		t.Helper()
		if _, err := conn.Write(encodeAppend(nil, fr)); err != nil {
			t.Fatalf("write: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		f, err := readMsg(conn)
		if err != nil || f.typ != frameAppendAck {
			t.Fatalf("ack: %+v, %v", f, err)
		}
		return f.ack
	}

	ents := []replica.Entry{wireEntry(1), wireEntry(2), wireEntry(3)}
	a := send(appendFrame{Seq: 1, Term: 1, PrevIndex: 0, PrevTerm: 0, Commit: 2, Entries: ents})
	if !a.OK || a.Match != 3 || a.Seq != 1 {
		t.Fatalf("append ack: %+v", a)
	}
	if last, commit, applied := s.MemberState(); last != 3 || commit != 2 || applied != 2 {
		t.Fatalf("member state: %d/%d/%d", last, commit, applied)
	}

	// A gap (prev beyond the log) nacks with the vouchable index.
	a = send(appendFrame{Seq: 2, Term: 1, PrevIndex: 9, PrevTerm: 1, Commit: 3, Entries: []replica.Entry{wireEntry(10)}})
	if a.OK || a.Match != 3 {
		t.Fatalf("gap ack: %+v", a)
	}

	// A heartbeat advances commit.
	a = send(appendFrame{Seq: 3, Term: 1, PrevIndex: 3, PrevTerm: 3, Commit: 3})
	if !a.OK {
		t.Fatalf("heartbeat ack: %+v", a)
	}
	if _, commit, applied := s.MemberState(); commit != 3 || applied != 3 {
		t.Fatalf("commit after heartbeat: %d/%d", commit, applied)
	}

	st := s.Stats()
	if st.Appends != 3 || st.AppendNacks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
