package frontend

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/wireproto"
)

// wrapListener hands the server connections it can observe and break:
// every SetReadDeadline is counted, and failWrites makes Write fail the
// way a peer that went away does, without the reader seeing anything.
type wrapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*wrapConn
}

type wrapConn struct {
	net.Conn
	readDeadlines atomic.Int64
	failWrites    atomic.Bool
}

func (l *wrapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	w := &wrapConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, w)
	l.mu.Unlock()
	return w, nil
}

// startWrapped is startServer behind a wrapListener.
func startWrapped(t *testing.T, cfg Config) (*Server, *wrapListener) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := &wrapListener{Listener: ln}
	go s.Serve(wl)
	t.Cleanup(s.Close)
	return s, wl
}

// last returns the most recently accepted connection.
func (l *wrapListener) last() *wrapConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[len(l.conns)-1]
}

func (w *wrapConn) SetReadDeadline(t time.Time) error {
	w.readDeadlines.Add(1)
	return w.Conn.SetReadDeadline(t)
}

func (w *wrapConn) Write(p []byte) (int, error) {
	if w.failWrites.Load() {
		return 0, errors.New("wrapConn: write failed")
	}
	return w.Conn.Write(p)
}

// waitFor polls cond for up to a second.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestCloseReapsReaders pins shutdown with a reader goroutine per
// connection: 64 connections ping-pong concurrently, then — all still
// open and idle — Close (and Drain, for connections that never close)
// returns promptly having closed every one, with no goroutine left.
func TestCloseReapsReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*testing.T, *Server)
	}{
		{"close", func(_ *testing.T, s *Server) { s.Close() }},
		{"drain", func(t *testing.T, s *Server) {
			if forced := s.Drain(50 * time.Millisecond); forced != 64 {
				t.Errorf("drain force-closed %d connections, want 64", forced)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			e := newMapExec()
			s, addr := startServer(t, Config{Execs: []Exec{e, e}})
			const conns, rounds = 64, 100
			clients := make([]*tclient, conns)
			var wg sync.WaitGroup
			for i := range clients {
				clients[i] = dialT(t, addr)
				wg.Add(1)
				go func(i int, c *tclient) {
					defer wg.Done()
					for j := 0; j < rounds; j++ {
						key := uint64(i)<<16 | uint64(j)
						c.send(&wireproto.Request{Op: wireproto.OpSet, ID: uint64(2 * j), Key: key, Val: key + 1})
						if r, err := c.tryRecv(); err != nil || r.Type != wireproto.RespStored || r.ID != uint64(2*j) {
							t.Errorf("conn %d set %d: %+v, %v", i, j, r, err)
							return
						}
						c.send(&wireproto.Request{Op: wireproto.OpGet, ID: uint64(2*j + 1), Key: key})
						if r, err := c.tryRecv(); err != nil || r.Type != wireproto.RespValue || r.Val != key+1 || r.ID != uint64(2*j+1) {
							t.Errorf("conn %d get %d: %+v, %v", i, j, r, err)
							return
						}
					}
				}(i, clients[i])
			}
			wg.Wait()
			if n := s.Metrics().Active.Load(); n != conns {
				t.Fatalf("active before stop: %d, want %d", n, conns)
			}

			start := time.Now()
			tc.stop(t, s)
			if took := time.Since(start); took > time.Second {
				t.Fatalf("stop took %v with %d idle connections open", took, conns)
			}
			if n := s.Metrics().Active.Load(); n != 0 {
				t.Fatalf("active after stop: %d, want 0", n)
			}
			for i, c := range clients {
				if _, err := c.tryRecv(); err == nil {
					t.Fatalf("conn %d survived stop", i)
				}
			}
			if !waitFor(func() bool { return runtime.NumGoroutine() <= baseline }) {
				t.Fatalf("goroutines: %d, want the pre-NewServer %d", runtime.NumGoroutine(), baseline)
			}
		})
	}
}

// TestExecutorKill pins the one way a connection dies from outside its
// reader: an executor whose flush fails kills it, which must unblock the
// reader, close and count the connection exactly once, and leave other
// connections alone. The first leg breaks the server's writes under an
// open client, so kill() is the only thing that can end the reader; the
// second is the real thing — a client that pipelines 64 requests and
// resets without reading — where kill() races the reader's own EOF.
func TestExecutorKill(t *testing.T) {
	s, wl := startWrapped(t, Config{Execs: []Exec{newMapExec()}})
	addr := wl.Addr().String()

	bystander := dialT(t, addr)
	served := uint64(0)
	serve := func() {
		t.Helper()
		served++
		bystander.send(&wireproto.Request{Op: wireproto.OpLen, ID: served})
		if r := bystander.recv(); r.Type != wireproto.RespLen || r.ID != served {
			t.Fatalf("bystander reply: %+v", r)
		}
	}
	serve()
	// A double decrement would read 0 here, a missed one 2.
	onlyBystander := func() bool { serve(); return s.Metrics().Active.Load() == 1 }

	victim := dialT(t, addr)
	victim.send(&wireproto.Request{Op: wireproto.OpLen, ID: 1})
	victim.recv()
	wl.last().failWrites.Store(true)
	victim.send(&wireproto.Request{Op: wireproto.OpLen, ID: 2})
	if _, err := victim.tryRecv(); err == nil {
		t.Fatal("connection survived a failed flush")
	}
	if !waitFor(onlyBystander) {
		t.Fatalf("active after a failed flush: %d, want 1", s.Metrics().Active.Load())
	}

	burst := make([]*wireproto.Request, 64)
	for i := range burst {
		burst[i] = &wireproto.Request{Op: wireproto.OpGet, ID: uint64(i + 1), Key: uint64(i)}
	}
	for round := 0; round < 20; round++ {
		c := dialT(t, addr)
		c.send(burst...)
		c.nc.(*net.TCPConn).SetLinger(0) // close = RST: the server's write fails
		c.nc.Close()
		serve()
	}
	if !waitFor(onlyBystander) {
		t.Fatalf("active after 20 reset clients: %d, want 1", s.Metrics().Active.Load())
	}
	bystander.nc.Close()
	if !waitFor(func() bool { return s.Metrics().Active.Load() <= 0 }) || s.Metrics().Active.Load() != 0 {
		t.Fatalf("active at the end: %d, want 0", s.Metrics().Active.Load())
	}
}
