package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
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
	addr := listen(t, ffwdText(t, 1024, 4))
	_, _, send := dialText(t, addr)

	long := "set 1 " + strings.Repeat("9", maxLine+100)
	hugeMget := "mget"
	for i := 0; i <= mgetMax; i++ {
		hugeMget += fmt.Sprintf(" %d", i)
	}
	steps := []struct{ in, want string }{
		{"set 5 50", "STORED"},
		{long, "ERROR line too long"},
		{"get 5", "VALUE 50"}, // the overlong line did not desync the stream
		{hugeMget, fmt.Sprintf("ERROR mget limited to %d keys", mgetMax)},
		{"get 5", "VALUE 50"},
		{"bogus", usageMsg},
		{"get x", "ERROR bad number \"x\""},
		{"set 1", usageMsg},
		{"set 1 2 3", usageMsg},
		{"\x00\x01\x02", usageMsg}, // binary junk is an unknown op, not a crash
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
// deadline, not held open forever — and the frontend must keep serving
// fresh connections afterwards.
func TestStalledConnectionHitsReadDeadline(t *testing.T) {
	fe := ffwdText(t, 64, 2)
	fe.readTimeout = 50 * time.Millisecond
	addr := listen(t, fe)

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
	if got := fe.stats.readTimeouts.Load(); got != 1 {
		t.Fatalf("readTimeouts = %d, want 1", got)
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
	fe := ffwdText(t, 64, 2)
	fe.maxConns = 1
	addr := listen(t, fe)

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
	if got := fe.stats.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// Free the slot and get admitted.
	conn1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for fe.stats.active.Load() != 0 {
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

// TestPoolSaturationSheds: with every pooled executor borrowed, a
// command batch must be answered BUSY within the shed timeout instead of
// queueing indefinitely — every command of it, and only those that
// needed an executor — and served again once an executor returns.
func TestPoolSaturationSheds(t *testing.T) {
	fe := ffwdText(t, 64, 1) // a single pooled executor
	fe.pool.shedAfter = time.Millisecond

	held := fe.pool.get() // saturate the pool
	if got := handle(fe, "len"); got != "BUSY delegation pool saturated" {
		t.Fatalf("saturated handle = %q, want BUSY", got)
	}
	if got := fe.pool.sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	var b textBatch
	for _, line := range []string{"set 1 1", "bogus", "get 1"} {
		b.add([]byte(line))
	}
	fe.run(&b)
	if want := busyPool + "\n" + usageMsg + "\n" + busyPool + "\n"; string(b.out) != want {
		t.Fatalf("saturated batch = %q, want %q", b.out, want)
	}
	fe.pool.put(held)
	if got := handle(fe, "len"); got != "LEN 0" {
		t.Fatalf("post-release handle = %q", got)
	}
}

// TestReadLineBounds pins readLine's contract: exact-fit lines pass,
// one-over lines come back as errLineTooLong with the stream intact.
func TestReadLineBounds(t *testing.T) {
	fits := strings.Repeat("a", maxLine-1) + "\n"
	over := strings.Repeat("b", maxLine) + "\n"
	r := bufio.NewReaderSize(strings.NewReader(fits+over+"next\n"), maxLine)
	if line, err := readLine(r); err != nil || string(line) != fits {
		t.Fatalf("exact-fit line: %q, %v", line[:16], err)
	}
	if _, err := readLine(r); err != errLineTooLong {
		t.Fatalf("over line: %v, want errLineTooLong", err)
	}
	if line, err := readLine(r); err != nil || string(line) != "next\n" {
		t.Fatalf("stream desynced after overlong line: %q, %v", line, err)
	}
	// A trailing line without a newline is still a command.
	r = bufio.NewReaderSize(strings.NewReader("quit"), maxLine)
	if line, err := readLine(r); err != nil || string(line) != "quit" {
		t.Fatalf("unterminated final line: %q, %v", line, err)
	}
}
