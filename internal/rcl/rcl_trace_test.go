package rcl

import (
	"testing"

	"ffwd/internal/obs"
)

// TestBatchedTraceLifecycle: against a live sink the RCL paths buffer
// events locally and publish them in combined ring appends; the snapshot
// must still hold one complete, ordered lifecycle per operation,
// attributable by the shared pipeline.
func TestBatchedTraceLifecycle(t *testing.T) {
	const ops = 200
	sink := obs.NewTraceSink(obs.SinkConfig{Clients: 2})
	s := NewServer(2)
	s.SetTrace(sink)
	l := s.NewLock()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := s.MustNewClient()
	counter := uint64(0)
	for i := uint64(1); i <= ops; i++ {
		if got := c.Execute(l, func(any) uint64 { counter++; return counter }, nil); got != i {
			t.Fatalf("Execute #%d = %d", i, got)
		}
	}
	s.Stop()

	evs := sink.Snapshot()
	if sink.Drops() != 0 {
		t.Fatalf("sink dropped %d events", sink.Drops())
	}
	counts := obs.CountByKind(evs)
	for _, k := range []obs.Kind{obs.KindClientIssue, obs.KindClientWaitStart,
		obs.KindClientComplete, obs.KindExecute, obs.KindRespond} {
		if counts[k] != ops {
			t.Errorf("count[%v] = %d, want %d", k, counts[k], ops)
		}
	}
	b := obs.Attribute(evs)
	if b.Ops != ops || b.Partial != 0 {
		t.Fatalf("attributed ops = %d partial = %d, want %d and 0", b.Ops, b.Partial, ops)
	}

	// Per-seq ordering across the combined appends.
	type lifecycle struct{ issue, exec, resp, done int64 }
	byseq := make(map[uint64]*lifecycle)
	for _, ev := range evs {
		lc := byseq[ev.Arg]
		if lc == nil {
			lc = &lifecycle{}
			byseq[ev.Arg] = lc
		}
		switch ev.Kind {
		case obs.KindClientIssue:
			lc.issue = ev.TS
		case obs.KindExecute:
			lc.exec = ev.TS
		case obs.KindRespond:
			lc.resp = ev.TS
		case obs.KindClientComplete:
			lc.done = ev.TS
		}
	}
	for seq, lc := range byseq {
		if lc.exec < lc.issue || lc.resp < lc.exec {
			t.Fatalf("seq %d: lifecycle out of order issue=%d exec=%d resp=%d done=%d",
				seq, lc.issue, lc.exec, lc.resp, lc.done)
		}
	}
}

// TestBatchedTraceAllocParity: RCL's protocol allocates per operation by
// design (the request record and response cell — the pointer-chasing
// structure the paper indicts); batched tracing must not add to that.
func TestBatchedTraceAllocParity(t *testing.T) {
	measure := func(s *Server) float64 {
		l := s.NewLock()
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		c := s.MustNewClient()
		fn := func(any) uint64 { return 1 }
		c.Execute(l, fn, nil) // warm up
		return testing.AllocsPerRun(200, func() { c.Execute(l, fn, nil) })
	}
	plain := measure(NewServer(1))
	traced := NewServer(1)
	traced.SetTrace(obs.NewTraceSink(obs.SinkConfig{Clients: 1, ClientCap: 1 << 12, ServerCap: 1 << 12}))
	if p, tr := plain, measure(traced); tr > p {
		t.Fatalf("batched tracing raised allocs per op from %.2f to %.2f", p, tr)
	}
}
