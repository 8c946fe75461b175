package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ffwd/internal/frontend"
	"ffwd/internal/wireproto"
)

// dialText opens a connection with a line-oriented send/recv helper.
func dialText(t *testing.T, addr string) (net.Conn, *bufio.Reader, func(cmd string) string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	send := func(cmd string) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", cmd, err)
		}
		return strings.TrimSuffix(line, "\n")
	}
	return conn, r, send
}

// TestProtocolRobustness is the protocol-fuzz table over a live TCP
// connection: every malformed input must produce exactly one ERROR-class
// reply and leave the connection serving — no silent truncation, no
// silent disconnect.
func TestProtocolRobustness(t *testing.T) {
	_, addr := listen(t, ffwdText(t, 1024, 4))
	_, _, send := dialText(t, addr)

	long := "set 1 " + strings.Repeat("9", frontend.MaxLine+100)
	hugeMget := "mget"
	for i := 0; i <= wireproto.MGetMax; i++ {
		hugeMget += fmt.Sprintf(" %d", i)
	}
	steps := []struct{ in, want string }{
		{"set 5 50", "STORED"},
		{long, "ERROR line too long"},
		{"get 5", "VALUE 50"}, // the overlong line did not desync the stream
		{hugeMget, fmt.Sprintf("ERROR mget limited to %d keys", wireproto.MGetMax)},
		{"get 5", "VALUE 50"},
		{"bogus", frontend.UsageMsg},
		{"get x", "ERROR bad number \"x\""},
		{"set 1", frontend.UsageMsg},
		{"set 1 2 3", frontend.UsageMsg},
		{"\x00\x01\x02", frontend.UsageMsg}, // binary junk is an unknown op, not a crash
		{"get 18446744073709551616", "ERROR bad number \"18446744073709551616\""},
		{"get 5", "VALUE 50"},
	}
	for _, s := range steps {
		if got := send(s.in); got != s.want {
			t.Fatalf("send(%.40q) = %q, want %q", s.in, got, s.want)
		}
	}
}

// TestStalledConnectionHitsReadDeadline is the idle-leak regression: a
// quit-less client that goes silent must be told and dropped by the read
// deadline (within [IdleTimeout, 2 × IdleTimeout] of its last byte), not
// held open forever — and the server must keep serving fresh connections
// afterwards.
func TestStalledConnectionHitsReadDeadline(t *testing.T) {
	cfg := ffwdText(t, 64, 2)
	cfg.IdleTimeout = 50 * time.Millisecond
	srv, addr := listen(t, cfg)

	conn, r, send := dialText(t, addr)
	if got := send("set 1 10"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	// Stall. The deadline must fire, explain itself, and close the conn.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSuffix(line, "\n") != "ERROR idle timeout" {
		t.Fatalf("stalled read = %q, %v; want the idle-timeout notice", line, err)
	}
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("connection still open after idle timeout: %v", err)
	}
	if got := srv.Metrics().IdleReaps.Load(); got != 1 {
		t.Fatalf("idle reaps = %d, want 1", got)
	}
	// The frontend is unharmed: a fresh connection serves normally.
	_, _, send2 := dialText(t, addr)
	if got := send2("get 1"); got != "VALUE 10" {
		t.Fatalf("fresh connection after timeout: %q", got)
	}
}

// TestMaxConnsAdmission: beyond the cap a new arrival is told BUSY and
// closed without a serving goroutine; when a slot frees, admission
// resumes.
func TestMaxConnsAdmission(t *testing.T) {
	cfg := ffwdText(t, 64, 2)
	cfg.MaxConns = 1
	srv, addr := listen(t, cfg)

	conn1, _, send := dialText(t, addr)
	if got := send("len"); got != "LEN 0" {
		t.Fatalf("first conn: %q", got)
	}
	// Over the cap: rejected at admission.
	_, r2, _ := dialText(t, addr)
	line, err := r2.ReadString('\n')
	if err != nil || strings.TrimSuffix(line, "\n") != "BUSY max connections" {
		t.Fatalf("over-cap greeting = %q, %v; want BUSY", line, err)
	}
	if _, err := r2.ReadString('\n'); err != io.EOF {
		t.Fatalf("rejected connection not closed: %v", err)
	}
	if got := srv.Metrics().Rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// Free the slot and get admitted.
	conn1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().Active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, send3 := dialText(t, addr)
	if got := send3("len"); got != "LEN 0" {
		t.Fatalf("post-release conn: %q", got)
	}
}

// heldExec wraps an executor so a test can hold it mid-batch: ExecBatch
// announces itself on entered and blocks until release closes.
type heldExec struct {
	frontend.Exec
	entered, release chan struct{}
}

func (h *heldExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-h.release
	h.Exec.ExecBatch(ops, results)
}

// TestPoolSaturationSheds: with every pooled executor borrowed, a
// command batch must be answered BUSY within the shed timeout instead of
// queueing indefinitely — every command of it, and only those that
// needed an executor: a malformed line is still told so, and the
// replicated stats verb, which reads the group and not the store, is
// still answered — and served again once an executor returns.
func TestPoolSaturationSheds(t *testing.T) {
	const busy = "BUSY delegation pool saturated"
	for _, tc := range []struct {
		name  string
		cfg   frontend.Config
		stats string // what the stats verb answers while saturated
		sheds uint64 // commands shed, of set, get and stats
	}{
		{"ffwd", ffwdText(t, 64, 1), busy, 3},
		{"replicated", newRepBackend(t, 64, 1, nil).cfg, "STATS term=1 ", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := &heldExec{Exec: tc.cfg.Execs[0], entered: make(chan struct{}, 1), release: make(chan struct{})}
			tc.cfg.Execs, tc.cfg.ShedTimeout = []frontend.Exec{held}, time.Millisecond // a single pooled executor
			srv, addr := listen(t, tc.cfg)

			holder, hr, _ := dialText(t, addr)
			fmt.Fprintf(holder, "len\n")
			<-held.entered // the pool is saturated

			conn, r, send := dialText(t, addr)
			fmt.Fprintf(conn, "set 1 1\nbogus\nget 1\nstats\n")
			for i, want := range []string{busy, frontend.UsageMsg, busy, tc.stats} {
				if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, want) {
					t.Fatalf("saturated reply %d = %q, %v; want %q", i, line, err, want)
				}
			}
			if got := srv.Metrics().QueueSheds.Load(); got != tc.sheds {
				t.Fatalf("sheds = %d, want %d", got, tc.sheds)
			}
			close(held.release)
			if line, _ := hr.ReadString('\n'); line != "LEN 0\n" {
				t.Fatalf("held command = %q", line)
			}
			if got := send("len"); got != "LEN 0" {
				t.Fatalf("post-release = %q", got)
			}
		})
	}
}

// TestReadLineBounds pins the line codec's bound: exact-fit lines pass,
// one-over lines cost one ERROR with the stream intact.
func TestReadLineBounds(t *testing.T) {
	const tooLong = "ERROR line too long\n"
	fits := strings.Repeat("a", frontend.MaxLine-1) + "\n"
	over := strings.Repeat("b", frontend.MaxLine) + "\n"
	buf := []byte(fits + over + "next\n")
	var r frontend.Request
	next := func() (frontend.Verdict, string) {
		n, v := frontend.Text{}.Decode(buf, &r)
		buf = buf[n:]
		return v, string(r.Reply)
	}
	if v, reply := next(); v != frontend.Reply || reply != frontend.UsageMsg+"\n" {
		t.Fatalf("exact-fit line: %v %q", v, reply)
	}
	if v, reply := next(); v != frontend.Reply|frontend.Malformed || reply != tooLong {
		t.Fatalf("over line: %v %q, want the too-long error", v, reply)
	}
	if v, reply := next(); v != frontend.Reply || reply != frontend.UsageMsg+"\n" || len(buf) != 0 {
		t.Fatalf("stream desynced after overlong line: %v %q, %d bytes left", v, reply, len(buf))
	}
	// The same line arriving through a connection's MaxLine-byte buffer:
	// one error for its first buffer-full, the rest discarded through the
	// newline, and the command behind it intact.
	buf = []byte(over[:frontend.MaxLine])
	if v, reply := next(); v != frontend.Reply|frontend.Malformed || reply != tooLong || len(buf) != 0 {
		t.Fatalf("buffer-full of an over line: %v %q", v, reply)
	}
	buf = []byte(over[frontend.MaxLine:] + "len\n")
	if v, reply := next(); v != frontend.Reply || reply != "" {
		t.Fatalf("tail of an over line: %v %q, want it discarded without a word", v, reply)
	}
	if v, _ := next(); v != frontend.Run || r.Op != wireproto.OpLen {
		t.Fatalf("command behind an over line: %v %+v", v, r.Request)
	}
	// A trailing line without a newline waits for more — until the peer
	// has closed, when it is still a command.
	buf = []byte("quit")
	if v, _ := next(); v != frontend.More {
		t.Fatalf("unterminated line before EOF: %v, want More", v)
	}
	r.EOF = true
	if v, _ := next(); v != frontend.Close {
		t.Fatalf("unterminated final line: %v, want the quit", v)
	}
}
