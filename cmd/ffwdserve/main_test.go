package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/wireproto"
)

// ffwdText builds a text frontend over the ffwd backend main would build
// for `clients` text executors on a fresh delegated store.
func ffwdText(t *testing.T, capacity, clients int) *textFrontend {
	t.Helper()
	be, err := newFFWDBackend(storeOpts{capacity: capacity, clients: clients}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.stop)
	return newTextFrontend(newExecPool(be.text, 0))
}

// mutexText is the same over the global-lock backend; a nil tick freezes
// the clock at zero.
func mutexText(capacity int, tick func() uint64) *textFrontend {
	if tick == nil {
		tick = func() uint64 { return 0 }
	}
	be := newMutexBackend(storeOpts{capacity: capacity, clients: 1, tick: tick}, obs.NewRegistry())
	return newTextFrontend(newExecPool(be.text, 0))
}

// handle runs one command line the way a connection would — parse, one
// ExecBatch on a pooled executor, format — as a batch of one, and returns
// the reply line ("" for a blank line or quit, which have none).
func handle(fe *textFrontend, line string) string {
	var b textBatch
	if b.add([]byte(line)) {
		return ""
	}
	fe.run(&b)
	return strings.TrimSuffix(string(b.out), "\n")
}

func TestParse(t *testing.T) {
	var op frontend.Op
	cmd, _, _ := parse([]byte("set 1 42"), &op, nil)
	if cmd != cmdOp || op.Kind != wireproto.OpSet || op.Key != 1 || op.Val != 42 {
		t.Fatalf("parse(set 1 42) = %v %+v", cmd, op)
	}
	if cmd, _, _ := parse([]byte(" \t"), &op, nil); cmd != cmdNone {
		t.Fatalf("blank line parsed as %v", cmd)
	}
	if cmd, reply, _ := parse([]byte("get abc"), &op, nil); cmd != cmdReply || reply != `ERROR bad number "abc"` {
		t.Fatalf("non-numeric arg: %v %q", cmd, reply)
	}
	if cmd, _, _ := parse([]byte("GET 1"), &op, nil); cmd != cmdOp || op.Kind != wireproto.OpGet {
		t.Fatalf("case-insensitive op broken: %v %+v", cmd, op)
	}
	cmd, _, keys := parse([]byte("mget 3 4 5"), &op, make([]uint64, 0, 8))
	if cmd != cmdOp || op.Kind != wireproto.OpMGet || len(op.Keys) != 3 || &op.Keys[0] != &keys[0] {
		t.Fatalf("mget keys must alias the scratch: %v %+v", cmd, op)
	}
	if cmd, _, _ := parse([]byte("QUIT"), &op, nil); cmd != cmdQuit {
		t.Fatalf("quit parsed as %v", cmd)
	}
}

func TestDispatchProtocol(t *testing.T) {
	for _, tc := range []struct {
		name string
		fe   *textFrontend
	}{
		{"ffwd", ffwdText(t, 128, 4)},
		{"mutex", mutexText(128, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := []struct{ in, want string }{
				{"get 1", "NOT_FOUND"},
				{"set 1 42", "STORED"},
				{"get 1", "VALUE 42"},
				{"set 1 43", "STORED"},
				{"get 1", "VALUE 43"},
				{"len", "LEN 1"},
				{"del 1", "DELETED"},
				{"del 1", "NOT_FOUND"},
				{"get 1", "NOT_FOUND"},
				{"set 2 18446744073709551615", "ERROR value reserved"},
				{"bogus", usageMsg},
				{"set x y", "ERROR bad number \"x\""},
				{"get 1 2", usageMsg},
				{"set 10 100", "STORED"},
				{"set 12 120", "STORED"},
				{"mget 10 11 12", "VALUES 100 - 120"},
				{"mget", usageMsg},
				{"setx 20 200 1000000", "STORED"},
				{"setx 21 18446744073709551615 5", "ERROR value reserved"},
				{"get 20", "VALUE 200"},
				{"touch 20 2000000", "TOUCHED"},
				{"touch 21 5", "NOT_FOUND"},
				{"setx 20 200", usageMsg},
				{"touch 20", usageMsg},
				{"stats", "STATS hits=6 misses=4 evictions=0 expired=0"},
			}
			for _, s := range steps {
				if got := handle(tc.fe, s.in); got != s.want {
					t.Fatalf("handle(%q) = %q, want %q", s.in, got, s.want)
				}
			}
		})
	}
}

// Regression: the mutex backend's reads must carry a tick too. With a
// tick source wired, a setx'd key has to stop reading back once its TTL
// elapses even when no further TTL-bearing command runs — the clock used
// to advance only on setx/touch, so pure-read workloads never expired
// anything.
func TestMutexBackendReadExpiry(t *testing.T) {
	var now atomic.Uint64
	b := mutexText(128, now.Load)
	if got := handle(b, "setx 1 10 5"); got != "STORED" {
		t.Fatalf("setx = %q", got)
	}
	if got := handle(b, "get 1"); got != "VALUE 10" {
		t.Fatalf("get before expiry = %q", got)
	}
	now.Store(6)
	// Pure reads from here on: only get/mget may advance the clock.
	if got := handle(b, "get 1"); got != "NOT_FOUND" {
		t.Fatalf("get after expiry = %q", got)
	}
	if got := handle(b, "mget 1 2"); got != "VALUES - -" {
		t.Fatalf("mget after expiry = %q", got)
	}
	if got := handle(b, "stats"); !strings.Contains(got, "expired=1") {
		t.Fatalf("stats = %q, want expired=1", got)
	}
}

// listen starts fe accepting on an ephemeral port and returns its
// address.
func listen(t *testing.T, fe *textFrontend) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go fe.acceptLoop(ln)
	return ln.Addr().String()
}

func TestServeOverTCP(t *testing.T) {
	addr := listen(t, ffwdText(t, 1024, 8))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(cmd string) string {
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line[:len(line)-1]
	}
	if got := send("set 7 700"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := send("get 7"); got != "VALUE 700" {
		t.Fatalf("get: %q", got)
	}
	if got := send("del 7"); got != "DELETED" {
		t.Fatalf("del: %q", got)
	}
	fmt.Fprintln(conn, "quit")
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after quit")
	}
}

func TestServeConcurrentConnections(t *testing.T) {
	addr := listen(t, ffwdText(t, 1<<12, 16))

	const conns, opsEach = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		base := uint64(c * 1000)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := uint64(0); i < opsEach; i++ {
				fmt.Fprintf(conn, "set %d %d\n", base+i, base+i+1)
				if line, _ := r.ReadString('\n'); line != "STORED\n" {
					t.Errorf("set: %q", line)
					return
				}
				fmt.Fprintf(conn, "get %d\n", base+i)
				want := fmt.Sprintf("VALUE %d\n", base+i+1)
				if line, _ := r.ReadString('\n'); line != want {
					t.Errorf("get: %q want %q", line, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPipelinedBurstProgramOrder: one TCP write carrying a burst of
// commands on one key must be answered as if they ran one after another
// — a read sees the write pipelined ahead of it, on every backend, through
// either frontend and at every GOMAXPROCS. This is the per-connection
// order DESIGN.md promises. Nothing flushes between the commands to get
// it: the ffwd executors overlap the whole burst in one delegation
// window, which executes in submit order (core.AsyncGroup's ordering
// contract); the mutex executor holds a lock per op; the replicated one
// flushes a write run before each read.
func TestPipelinedBurstProgramOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := []string{"STORED", "STORED", "VALUE 2", "DELETED", "NOT_FOUND"}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			name   string
			text   func(t *testing.T) *textFrontend
			binary func(t *testing.T) []frontend.Exec
		}{
			{"ffwd", func(t *testing.T) *textFrontend { return ffwdText(t, 1024, 4) },
				func(t *testing.T) []frontend.Exec {
					be, err := newFFWDBackend(storeOpts{capacity: 1024, shards: 2}, obs.NewRegistry())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(be.stop)
					return be.binary
				}},
			{"mutex", func(*testing.T) *textFrontend { return mutexText(1024, nil) },
				func(*testing.T) []frontend.Exec {
					return newMutexBackend(storeOpts{capacity: 1024, shards: 2, tick: func() uint64 { return 0 }}, obs.NewRegistry()).binary
				}},
			{"replicated", func(t *testing.T) *textFrontend { return newRepBackend(t, 1024, 4, nil).fe },
				func(t *testing.T) []frontend.Exec {
					rb := newRepBackend(t, 1024, 2, nil)
					return newRepExecs(rb.r, 2, rb.cnt)
				}},
		} {
			burst := func(k int) []string {
				return []string{fmt.Sprintf("set %d 1", k), fmt.Sprintf("set %d 2", k), fmt.Sprintf("get %d", k), fmt.Sprintf("del %d", k), fmt.Sprintf("get %d", k)}
			}
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				conn, r, _ := dialText(t, listen(t, tc.text(t)))
				for k := 0; k < 200; k++ {
					if _, err := conn.Write([]byte(strings.Join(burst(k), "\n") + "\n")); err != nil {
						t.Fatal(err)
					}
					for i, w := range want {
						line, err := r.ReadString('\n')
						if err != nil || strings.TrimSuffix(line, "\n") != w {
							t.Fatalf("key %d reply %d = %q, %v; want %q", k, i, line, err, w)
						}
					}
				}
			})
			t.Run(fmt.Sprintf("%s/binary/procs=%d", tc.name, procs), func(t *testing.T) {
				bc := dialBinary(t, listenBinary(t, tc.binary(t)))
				for k := 0; k < 200; k++ {
					if got := bc.burst(burst(k)); !slices.Equal(got, want) {
						t.Fatalf("key %d replies %q, want %q", k, got, want)
					}
				}
			})
		}
	}
}
