package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"ffwd/internal/obs"
)

func TestAsyncGroupPipelines(t *testing.T) {
	s := startServer(t, Config{MaxClients: 4})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	g, err := NewAsyncGroup(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Window() != 4 {
		t.Fatalf("Window = %d", g.Window())
	}
	var results []uint64
	for i := 0; i < 100; i++ {
		if r, ok := g.Submit(inc); ok {
			results = append(results, r)
		}
	}
	g.Flush(func(r uint64) { results = append(results, r) })
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after Flush", g.InFlight())
	}
	if counter != 100 || len(results) != 100 {
		t.Fatalf("counter = %d, results = %d, want 100", counter, len(results))
	}
	// Results arrive in issue order: 1..100.
	for i, r := range results {
		if r != uint64(i+1) {
			t.Fatalf("result[%d] = %d, want %d (order broken)", i, r, i+1)
		}
	}
}

// sweepOnce runs one polling pass on the caller's goroutine. The order
// tests below use it on a server that is never started, so which requests
// one pass sees is the test's choice and not the scheduler's.
func sweepOnce(s *Server) int {
	var ret, seq [GroupSize]uint64
	var args [MaxArgs]uint64
	var ev [sweepEvCap]obs.Event
	return s.sweep(s.groupSize, &ret, &seq, &args, &ev)
}

// TestAsyncGroupOrderAcrossWrap: a window of 4 whose head stands at
// position 2 holds requests at positions 2, 3 and 0. A sweep meets
// position 0's slot first; it must not run it first, so serving all three
// takes two passes — which is also what Stop's final drain has to make.
func TestAsyncGroupOrderAcrossWrap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(*Server)
	}{
		{"two sweeps", func(s *Server) { sweepOnce(s); sweepOnce(s) }},
		{"stop drain", func(s *Server) { s.stopping.Store(true); s.run(make(chan struct{})) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{MaxClients: 4})
			var ran []uint64
			note := s.Register(func(a *[MaxArgs]uint64) uint64 { ran = append(ran, a[0]); return a[0] })
			g, err := NewAsyncGroup(s, 4)
			if err != nil {
				t.Fatal(err)
			}
			g.Submit1(note, 1)
			g.Submit1(note, 2)
			sweepOnce(s)
			g.Flush(nil) // both are served: the waits return at once
			for v := uint64(3); v <= 5; v++ {
				g.Submit1(note, v)
			}
			tc.serve(s)
			if want := []uint64{1, 2, 3, 4, 5}; !slices.Equal(ran, want) {
				t.Fatalf("executed %v, want %v", ran, want)
			}
			var got []uint64
			if err := g.FlushTimeout(time.Second, func(r uint64) { got = append(got, r) }); err != nil {
				t.Fatal(err)
			}
			if want := []uint64{3, 4, 5}; !slices.Equal(got, want) {
				t.Fatalf("delivered %v, want %v", got, want)
			}
		})
	}
}

// TestAsyncGroupOrderCursorBetween: the sweep stands between a window's
// two slots — on a plain client's slot, whose delegated function is the
// window's owner — when request N lands on the slot already passed and
// N+1 on the slot ahead. That pass must not run N+1.
func TestAsyncGroupOrderCursorBetween(t *testing.T) {
	s := NewServer(Config{MaxClients: 3})
	a, mid, b := s.MustNewClient(), s.MustNewClient(), s.MustNewClient()
	b.Close()
	a.Close() // the free list now hands out slot 0, then slot 2
	g, err := NewAsyncGroup(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := g.clients[0].slot, g.clients[1].slot; lo != 0 || mid.slot != 1 || hi != 2 {
		t.Fatalf("slots %d, %d, %d; the test needs the window around the plain client", lo, mid.slot, hi)
	}
	var ran []uint64
	note := s.Register(func(a *[MaxArgs]uint64) uint64 { ran = append(ran, a[0]); return a[0] })
	submit := s.Register(func(*[MaxArgs]uint64) uint64 {
		g.Submit1(note, 1)
		g.Submit1(note, 2)
		return 0
	})
	mid.Issue(submit)
	for len(ran) < 2 {
		if sweepOnce(s) == 0 {
			t.Fatalf("sweep served nothing with %v run", ran)
		}
	}
	if want := []uint64{1, 2}; !slices.Equal(ran, want) {
		t.Fatalf("executed %v, want %v", ran, want)
	}
	mid.Wait()
	g.Flush(nil)
}

// TestAsyncGroupCreatedMidSweep: windows are created, used and closed
// while the server is busy sweeping other clients' traffic, so the
// server meets every registration part-way through some sweep — and on
// slots a closed window (or a plain client) used before.
func TestAsyncGroupCreatedMidSweep(t *testing.T) {
	s := startServer(t, Config{MaxClients: 2 * GroupSize})
	echo := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.MustNewClient()
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
				c.Delegate1(echo, 7)
			}
		}
	}()
	for round := 0; round < 50; round++ {
		plain := s.MustNewClient() // shifts which slots the next window recycles
		var counter uint64
		inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
		g, err := NewAsyncGroup(s, 4+round%4)
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(1)
		check := func(r uint64) {
			if r != next {
				t.Fatalf("round %d: result %d delivered in place %d", round, r, next)
			}
			next++
		}
		for i := 0; i < 40; i++ {
			if r, ok := g.Submit0(inc); ok {
				check(r)
			}
		}
		g.Flush(check)
		if round%2 == 0 {
			plain.Close() // alternate the order the slots return in
		}
		g.Close()
		plain.Close()
	}
}

// TestAsyncGroupSubmitOverAbandonedWindow: after FlushTimeout gave up on
// a full window, Submit must first complete the oldest request — drain it
// if the server lives, panic like Client.Issue if it cannot arrive, never
// spin on a dead server.
func TestAsyncGroupSubmitOverAbandonedWindow(t *testing.T) {
	s := NewServer(Config{MaxClients: 2})
	echo := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	g, err := NewAsyncGroup(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Submit1(echo, 1)
	g.Submit1(echo, 2)
	if err := g.FlushTimeout(time.Millisecond, nil); err == nil {
		t.Fatal("FlushTimeout on a never-started server returned nil")
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		g.Submit1(echo, 3)
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("Submit over an undrainable window returned; want a panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit over an abandoned window hangs on a dead server")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if r, ok := g.Submit1(echo, 3); !ok || r != 1 {
		t.Fatalf("Submit on the live server = %d, %v; want the drained oldest result 1", r, ok)
	}
	var got []uint64
	g.Flush(func(r uint64) { got = append(got, r) })
	if want := []uint64{2, 3}; !slices.Equal(got, want) {
		t.Fatalf("flushed %v, want %v", got, want)
	}
	g.Close()
}

func TestAsyncGroupClampsWindow(t *testing.T) {
	s := startServer(t, Config{MaxClients: 2})
	g, err := NewAsyncGroup(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Window() != 1 {
		t.Fatalf("Window = %d, want 1", g.Window())
	}
}

func TestAsyncGroupSlotExhaustion(t *testing.T) {
	s := NewServer(Config{MaxClients: 2, GroupSizeOverride: 2})
	if _, err := NewAsyncGroup(s, 3); err == nil {
		t.Fatal("AsyncGroup larger than the server's slots did not fail")
	}
}

func TestAsyncGroupConcurrentGroups(t *testing.T) {
	const workers, perWorker, window = 4, 2000, 2
	s := NewServer(Config{MaxClients: workers * window})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := NewAsyncGroup(s, window)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWorker; i++ {
				g.Submit(inc)
			}
			g.Flush(nil)
		}()
	}
	wg.Wait()
	s.Stop()
	if counter != workers*perWorker {
		t.Fatalf("counter = %d, want %d", counter, workers*perWorker)
	}
}

func BenchmarkAsyncGroupWindow(b *testing.B) {
	for _, window := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "k=1", 2: "k=2(FFWDx2)", 4: "k=4"}[window], func(b *testing.B) {
			s := startServer(b, Config{MaxClients: window})
			fid := s.Register(func(*[MaxArgs]uint64) uint64 { return 0 })
			g, err := NewAsyncGroup(s, window)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Submit(fid)
			}
			g.Flush(nil)
		})
	}
}
