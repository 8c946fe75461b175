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

// ffwdExecs is the executor pool the ffwd backend main would build for
// one served protocol, n executors on a fresh delegated store.
func ffwdExecs(t *testing.T, capacity, n int) []frontend.Exec {
	t.Helper()
	be, err := newFFWDBackend(storeOpts{capacity: capacity, execs: n, pools: 1}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.stop)
	return be.pools[0]
}

// ffwdText configures a text server over an ffwd pool of n executors.
func ffwdText(t *testing.T, capacity, n int) frontend.Config {
	return frontend.Config{Codec: frontend.Text{}, Execs: ffwdExecs(t, capacity, n)}
}

// mutexText is the same over the global-lock backend; a nil tick freezes
// the clock at zero.
func mutexText(capacity int, tick func() uint64) frontend.Config {
	if tick == nil {
		tick = func() uint64 { return 0 }
	}
	be := newMutexBackend(storeOpts{capacity: capacity, execs: 1, pools: 1, tick: tick}, obs.NewRegistry())
	return frontend.Config{Codec: frontend.Text{}, Execs: be.pools[0]}
}

// listen starts the server cfg describes — the one main starts, for
// either protocol — on an ephemeral port and returns it and its address.
func listen(t *testing.T, cfg frontend.Config) (*frontend.Server, string) {
	t.Helper()
	srv, err := frontend.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// decode runs one command line through the line codec.
func decode(line string) (frontend.Request, frontend.Verdict) {
	var r frontend.Request
	_, v := frontend.Text{}.Decode([]byte(line+"\n"), &r)
	return r, v
}

func TestParse(t *testing.T) {
	if r, v := decode("set 1 42"); v != frontend.Run || r.Op != wireproto.OpSet || r.Key != 1 || r.Val != 42 {
		t.Fatalf("decode(set 1 42) = %v %+v", v, r.Request)
	}
	if r, v := decode(" \t"); v != frontend.Reply || len(r.Reply) != 0 {
		t.Fatalf("blank line decoded as %v %q", v, r.Reply)
	}
	if r, v := decode("get abc"); v != frontend.Reply || string(r.Reply) != "ERROR bad number \"abc\"\n" {
		t.Fatalf("non-numeric arg: %v %q", v, r.Reply)
	}
	if r, v := decode("GET 1"); v != frontend.Run || r.Op != wireproto.OpGet {
		t.Fatalf("case-insensitive op broken: %v %+v", v, r.Request)
	}
	if r, v := decode("mget 3 4 5"); v != frontend.Run || r.Op != wireproto.OpMGet || !slices.Equal(r.Keys, []uint64{3, 4, 5}) {
		t.Fatalf("mget: %v %+v", v, r.Request)
	}
	if r, v := decode("QUIT"); v != frontend.Close || len(r.Reply) != 0 {
		t.Fatalf("quit decoded as %v %q", v, r.Reply)
	}
}

func TestDispatchProtocol(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  frontend.Config
	}{
		{"ffwd", ffwdText(t, 128, 4)},
		{"mutex", mutexText(128, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := listen(t, tc.cfg)
			_, _, send := dialText(t, addr)
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
				{"bogus", frontend.UsageMsg},
				{"set x y", "ERROR bad number \"x\""},
				{"get 1 2", frontend.UsageMsg},
				{"set 10 100", "STORED"},
				{"set 12 120", "STORED"},
				{"mget 10 11 12", "VALUES 100 - 120"},
				{"mget", frontend.UsageMsg},
				{"setx 20 200 1000000", "STORED"},
				{"setx 21 18446744073709551615 5", "ERROR value reserved"},
				{"get 20", "VALUE 200"},
				{"touch 20 2000000", "TOUCHED"},
				{"touch 21 5", "NOT_FOUND"},
				{"setx 20 200", frontend.UsageMsg},
				{"touch 20", frontend.UsageMsg},
				{"stats", "STATS hits=6 misses=4 evictions=0 expired=0"},
			}
			for _, s := range steps {
				if got := send(s.in); got != s.want {
					t.Fatalf("send(%q) = %q, want %q", s.in, got, s.want)
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
	_, addr := listen(t, mutexText(128, now.Load))
	_, _, send := dialText(t, addr)
	if got := send("setx 1 10 5"); got != "STORED" {
		t.Fatalf("setx = %q", got)
	}
	if got := send("get 1"); got != "VALUE 10" {
		t.Fatalf("get before expiry = %q", got)
	}
	now.Store(6)
	// Pure reads from here on: only get/mget may advance the clock.
	if got := send("get 1"); got != "NOT_FOUND" {
		t.Fatalf("get after expiry = %q", got)
	}
	if got := send("mget 1 2"); got != "VALUES - -" {
		t.Fatalf("mget after expiry = %q", got)
	}
	if got := send("stats"); !strings.Contains(got, "expired=1") {
		t.Fatalf("stats = %q, want expired=1", got)
	}
}

func TestServeOverTCP(t *testing.T) {
	_, addr := listen(t, ffwdText(t, 1024, 8))

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
	_, addr := listen(t, ffwdText(t, 1<<12, 16))

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
// either protocol and at every GOMAXPROCS. This is the per-connection
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
			text   func(t *testing.T) frontend.Config
			binary func(t *testing.T) []frontend.Exec
		}{
			{"ffwd", func(t *testing.T) frontend.Config { return ffwdText(t, 1024, 4) },
				func(t *testing.T) []frontend.Exec { return ffwdExecs(t, 1024, 2) }},
			{"mutex", func(*testing.T) frontend.Config { return mutexText(1024, nil) },
				func(*testing.T) []frontend.Exec { return mutexText(1024, nil).Execs }},
			{"replicated", func(t *testing.T) frontend.Config { return newRepBackend(t, 1024, 4, nil).cfg },
				func(t *testing.T) []frontend.Exec { return newRepBackend(t, 1024, 2, nil).cfg.Execs }},
		} {
			burst := func(k int) []string {
				return []string{fmt.Sprintf("set %d 1", k), fmt.Sprintf("set %d 2", k), fmt.Sprintf("get %d", k), fmt.Sprintf("del %d", k), fmt.Sprintf("get %d", k)}
			}
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				_, addr := listen(t, tc.text(t))
				conn, r, _ := dialText(t, addr)
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
				_, addr := listen(t, frontend.Config{Execs: tc.binary(t)})
				bc := dialBinary(t, addr)
				for k := 0; k < 200; k++ {
					if got := bc.burst(burst(k)); !slices.Equal(got, want) {
						t.Fatalf("key %d replies %q, want %q", k, got, want)
					}
				}
			})
		}
	}
}
