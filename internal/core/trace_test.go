package core

import (
	"os"
	"sync"
	"testing"
	"time"

	"ffwd/internal/obs"
)

// TestTraceVocabulary runs a traced workload and checks that the full
// client/server lifecycle vocabulary appears with matchable sequence
// numbers: every operation must fold into a complete phase breakdown.
func TestTraceVocabulary(t *testing.T) {
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 4})
	s := startServer(t, Config{MaxClients: 4, Trace: sink, IdleParkAfter: 4})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] * 2 })

	const clients = 3
	const opsPer = 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			defer c.Close()
			for op := uint64(0); op < opsPer; op++ {
				if got := c.Delegate1(fid, op); got != op*2 {
					t.Errorf("Delegate1(%d) = %d, want %d", op, got, op*2)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Let the idle server reach a park so the park/wake pair shows up.
	time.Sleep(20 * time.Millisecond)
	c := s.MustNewClient()
	c.Delegate1(fid, 1)
	c.Close()
	// The server appends a group's events after the toggle store that
	// answers it: stop it so the last op's execute and respond are in.
	s.Stop()

	evs := sink.Snapshot()
	counts := obs.CountByKind(evs)
	for _, k := range []obs.Kind{
		obs.KindClientIssue, obs.KindClientWaitStart, obs.KindClientComplete,
		obs.KindSweepStart, obs.KindExecute, obs.KindRespond,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v events recorded; counts = %v", k, counts)
		}
	}
	if counts[obs.KindClientIssue] != clients*opsPer+1 {
		t.Errorf("issue events = %d, want %d", counts[obs.KindClientIssue], clients*opsPer+1)
	}
	if counts[obs.KindPark] == 0 || counts[obs.KindWake] == 0 {
		t.Errorf("no park/wake events; counts = %v", counts)
	}
	if sink.Drops() != 0 {
		t.Errorf("sink dropped %d events", sink.Drops())
	}

	b := obs.Attribute(evs)
	if b.Ops != clients*opsPer+1 {
		t.Errorf("attributed ops = %d (partial %d), want %d", b.Ops, b.Partial, clients*opsPer+1)
	}
	if b.Partial != 0 {
		t.Errorf("partial ops = %d, want 0", b.Partial)
	}
	if b.Total.Max() == 0 {
		t.Error("total phase histogram is empty")
	}
}

// TestTraceCrashRestart checks the supervisor-side vocabulary: an injected
// server kill must record a crash event, and the relaunch a restart event
// (routed through the sink's control ring, since it fires off the server
// goroutine).
func TestTraceCrashRestart(t *testing.T) {
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 2})
	s := startServer(t, Config{MaxClients: 2, Trace: sink, Hooks: killNth{n: 3}})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	c := s.MustNewClient()
	defer c.Close()
	for i := uint64(0); i < 10; i++ {
		for {
			if _, err := c.DelegateTimeout(time.Second, fid, i); err == nil {
				break
			}
			s.RestartIfCrashed()
		}
	}
	counts := obs.CountByKind(sink.Snapshot())
	if counts[obs.KindCrash] == 0 {
		t.Errorf("no crash events; counts = %v", counts)
	}
	if counts[obs.KindRestart] == 0 {
		t.Errorf("no restart events; counts = %v", counts)
	}
}

// killNth crashes the server once, while serving global op n.
type killNth struct{ n uint64 }

func (killNth) Sweep(uint64)     {}
func (killNth) Call(_, _ uint64) {}
func (killNth) DropWake() bool   { return false }
func (k killNth) Kill(op uint64) bool {
	return op == k.n
}

// TestTraceCaptureSmoke is the end-to-end capture smoke test behind `make
// trace`: it runs a traced workload and, when FFWD_TRACE_OUT is set,
// writes the snapshot as Chrome trace JSON for cmd/ffwdtrace to analyze.
func TestTraceCaptureSmoke(t *testing.T) {
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 8})
	s := startServer(t, Config{MaxClients: 8, Trace: sink})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] + a[1] })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			defer c.Close()
			for op := uint64(0); op < 500; op++ {
				c.Delegate2(fid, op, op)
			}
		}()
	}
	wg.Wait()

	evs := sink.Snapshot()
	if b := obs.Attribute(evs); b.Ops == 0 {
		t.Fatal("captured trace attributes zero operations")
	}
	out := os.Getenv("FFWD_TRACE_OUT")
	if out == "" {
		t.Log("FFWD_TRACE_OUT not set; skipping trace file write")
		return
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteChrome(f, evs); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d events to %s", len(evs), out)
}

// TestDelegateNilTracerAllocFree is the zero-overhead regression test for
// the nil-tracer configuration: with tracing disabled the delegation hot
// path must not allocate — the event sites cost one branch each, nothing
// more. (hotpath_test.go asserts the same across the wider API surface;
// this test pins the specific invariant the obs subsystem added.)
func TestDelegateNilTracerAllocFree(t *testing.T) {
	s := startServer(t, Config{MaxClients: 2})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	c := s.MustNewClient()
	defer c.Close()
	c.Delegate1(fid, 1) // warm up: fault in lazily-allocated runtime state
	time.Sleep(time.Microsecond)
	for name, op := range map[string]func(){
		"Delegate0": func() { c.Delegate0(fid) },
		"Delegate1": func() { c.Delegate1(fid, 1) },
		"Delegate3": func() { c.Delegate3(fid, 1, 2, 3) },
	} {
		if allocs := testing.AllocsPerRun(200, op); allocs > 0 {
			t.Errorf("%s with nil tracer allocates %.2f objects per op, want 0", name, allocs)
		}
	}
}

// TestDelegateTracedAllocFree is TestDelegateNilTracerAllocFree's live-
// sink twin: with a sink attached, the whole traced round trip —
// client-side event buffering, the server's per-sweep batch, and both
// EventBatch appends — must still allocate nothing.
func TestDelegateTracedAllocFree(t *testing.T) {
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 2, ServerCap: 1 << 20, ClientCap: 1 << 20})
	s := startServer(t, Config{MaxClients: 2, Trace: sink})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	c := s.MustNewClient()
	defer c.Close()
	c.Delegate1(fid, 1) // warm up: fault in lazily-allocated runtime state
	time.Sleep(time.Microsecond)
	for name, op := range map[string]func(){
		"Delegate0": func() { c.Delegate0(fid) },
		"Delegate1": func() { c.Delegate1(fid, 1) },
		"Delegate3": func() { c.Delegate3(fid, 1, 2, 3) },
	} {
		if allocs := testing.AllocsPerRun(200, op); allocs > 0 {
			t.Errorf("%s with live sink allocates %.2f objects per op, want 0", name, allocs)
		}
	}
	if sink.Drops() != 0 {
		t.Errorf("sink dropped %d events", sink.Drops())
	}
}

// TestBatchedTraceEventOrdering: write-combining events into shared
// buffers must not reorder or lose any operation's lifecycle. For every
// (slot, seq) the snapshot must hold exactly one issue, wait-start,
// execute, respond and complete, ordered issue ≤ wait-start, issue ≤
// execute ≤ respond ≤ complete — across client-side flushes, combined
// group appends, and sweeps that interleave many clients.
func TestBatchedTraceEventOrdering(t *testing.T) {
	const clients = 5
	const opsPer = 300
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: clients, ClientCap: 1 << 12, ServerCap: 1 << 14})
	s := startServer(t, Config{MaxClients: clients, Trace: sink})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		// Taken before any goroutine runs, so each client owns its slot
		// (and ring) even if the goroutines end up running one by one.
		c := s.MustNewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for op := uint64(0); op < opsPer; op++ {
				c.Delegate1(fid, op)
			}
		}()
	}
	wg.Wait()

	evs := sink.Snapshot()
	if sink.Drops() != 0 {
		t.Fatalf("sink dropped %d events", sink.Drops())
	}
	type opKey struct {
		slot int32
		seq  uint64
	}
	type opEvents struct {
		ts [6]int64 // indexed by Kind; only the five per-op kinds used
		n  [6]int
	}
	ops := make(map[opKey]*opEvents)
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindClientIssue, obs.KindClientWaitStart, obs.KindClientComplete,
			obs.KindExecute, obs.KindRespond:
			k := opKey{ev.Slot, ev.Arg}
			o := ops[k]
			if o == nil {
				o = &opEvents{}
				ops[k] = o
			}
			o.ts[ev.Kind] = ev.TS
			o.n[ev.Kind]++
		}
	}
	if len(ops) != clients*opsPer {
		t.Fatalf("distinct (slot, seq) ops = %d, want %d", len(ops), clients*opsPer)
	}
	for k, o := range ops {
		for _, kind := range []obs.Kind{obs.KindClientIssue, obs.KindClientWaitStart,
			obs.KindClientComplete, obs.KindExecute, obs.KindRespond} {
			if o.n[kind] != 1 {
				t.Fatalf("op %+v has %d %v events, want 1", k, o.n[kind], kind)
			}
		}
		issue, wait := o.ts[obs.KindClientIssue], o.ts[obs.KindClientWaitStart]
		exec, resp := o.ts[obs.KindExecute], o.ts[obs.KindRespond]
		done := o.ts[obs.KindClientComplete]
		if wait < issue {
			t.Fatalf("op %+v: wait-start %d before issue %d", k, wait, issue)
		}
		if exec < issue || resp < exec || done < resp {
			t.Fatalf("op %+v: lifecycle out of order issue=%d exec=%d resp=%d done=%d",
				k, issue, exec, resp, done)
		}
	}
}

// BenchmarkCoreDelegateNilTracer is the overhead baseline for the
// disabled-tracer branch; with BenchmarkCoreDelegateTraced it is the
// in-package view of the benchmark's core.traced_ratio row.
func BenchmarkCoreDelegateNilTracer(b *testing.B) {
	s := startServer(b, Config{})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	c := s.MustNewClient()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Delegate1(fid, 1)
	}
}

// BenchmarkCoreDelegateTraced measures the same round trip with a live
// sink, bounding the cost of enabled tracing (the overhead budget in
// DESIGN.md). Ring capacity is sized so recording never hits the full-ring
// drop path during the run.
func BenchmarkCoreDelegateTraced(b *testing.B) {
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 1, ServerCap: 1 << 22, ClientCap: 1 << 22})
	s := startServer(b, Config{Trace: sink})
	fid := s.Register(func(a *[MaxArgs]uint64) uint64 { return a[0] })
	c := s.MustNewClient()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Delegate1(fid, 1)
	}
}
