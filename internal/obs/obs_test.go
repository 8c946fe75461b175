package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestSinkRoutesAndOrders(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 2, ServerCap: 16, ClientCap: 16})
	s.Event(KindClientIssue, 0, 1)
	s.Event(KindExecute, 0, 1)
	s.Event(KindRespond, 0, 1)
	s.Event(KindClientComplete, 0, 1)
	s.Event(KindPark, -1, 0)
	s.Event(KindRestart, -1, 3)

	evs := s.Snapshot()
	if len(evs) != 6 {
		t.Fatalf("Snapshot len = %d, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("snapshot not time-ordered at %d: %d < %d", i, evs[i].TS, evs[i-1].TS)
		}
	}
	counts := CountByKind(evs)
	for _, k := range []Kind{KindClientIssue, KindExecute, KindRespond, KindClientComplete, KindPark, KindRestart} {
		if counts[k] != 1 {
			t.Errorf("count[%v] = %d, want 1", k, counts[k])
		}
	}
	if s.Drops() != 0 {
		t.Errorf("Drops = %d, want 0", s.Drops())
	}
}

func TestSinkRecordUntilFull(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 1, ServerCap: 4, ClientCap: 2})
	for i := 0; i < 10; i++ {
		s.Event(KindExecute, 0, uint64(i))
		s.Event(KindClientIssue, 0, uint64(i))
	}
	evs := s.Snapshot()
	if len(evs) != 6 { // 4 server + 2 client
		t.Fatalf("Snapshot len = %d, want 6", len(evs))
	}
	if s.Drops() != 14 {
		t.Errorf("Drops = %d, want 14", s.Drops())
	}
	// The recorded prefix must be the oldest events.
	counts := CountByKind(evs)
	if counts[KindExecute] != 4 || counts[KindClientIssue] != 2 {
		t.Errorf("kind counts = %v, want 4 executes + 2 issues", counts)
	}
}

func TestSinkOutOfRangeSlotDropped(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 1})
	s.Event(KindClientIssue, 5, 1)
	s.Event(KindClientIssue, -1, 1)
	if got := len(s.Snapshot()); got != 0 {
		t.Fatalf("Snapshot len = %d, want 0", got)
	}
	if s.Drops() != 2 {
		t.Errorf("Drops = %d, want 2", s.Drops())
	}
}

// TestSinkConcurrentSnapshot exercises the lock-free publish/snapshot
// protocol under the race detector: per-slot writers plus a server
// writer, with a reader snapshotting concurrently.
func TestSinkConcurrentSnapshot(t *testing.T) {
	const clients = 4
	const perClient = 1000
	s := NewTraceSink(SinkConfig{Clients: clients, ServerCap: clients * perClient, ClientCap: perClient})
	var writers, readers sync.WaitGroup
	for c := 0; c < clients; c++ {
		writers.Add(1)
		go func(c int32) {
			defer writers.Done()
			for i := 0; i < perClient; i++ {
				s.Event(KindClientIssue, c, uint64(i))
			}
		}(int32(c))
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < clients*perClient; i++ {
			s.Event(KindExecute, int32(i%clients), uint64(i))
		}
	}()
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := s.Snapshot()
			for i := 1; i < len(evs); i++ {
				if evs[i].TS < evs[i-1].TS {
					t.Error("concurrent snapshot not ordered")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	if got, want := s.Len(), 2*clients*perClient; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if s.Drops() != 0 {
		t.Errorf("Drops = %d, want 0", s.Drops())
	}
}

func TestChromeRoundTrip(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 2})
	s.Event(KindClientIssue, 1, 7)
	s.Event(KindExecute, 1, 7)
	s.Event(KindRespond, 1, 7)
	s.Event(KindClientComplete, 1, 7)
	s.Event(KindCrash, -1, 42)
	in := s.Snapshot()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: round trip %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadChromeSkipsForeignEvents(t *testing.T) {
	in := `{"traceEvents":[
		{"name":"server-execute","ph":"i","ts":1.5,"pid":1,"tid":1,"args":{"slot":0,"arg":9,"ns":1500}},
		{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{}}
	]}`
	evs, err := ReadChrome(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != KindExecute || evs[0].TS != 1500 || evs[0].Arg != 9 {
		t.Fatalf("ReadChrome = %+v, want one server-execute at 1500ns", evs)
	}
}

func TestAttribute(t *testing.T) {
	// Two complete ops on different slots plus one partial op.
	evs := []Event{
		{TS: 100, Kind: KindClientIssue, Slot: 0, Arg: 1},
		{TS: 110, Kind: KindClientWaitStart, Slot: 0, Arg: 1},
		{TS: 300, Kind: KindExecute, Slot: 0, Arg: 1},
		{TS: 450, Kind: KindRespond, Slot: 0, Arg: 1},
		{TS: 500, Kind: KindClientComplete, Slot: 0, Arg: 1},

		{TS: 1000, Kind: KindClientIssue, Slot: 3, Arg: 1},
		{TS: 1100, Kind: KindExecute, Slot: 3, Arg: 1},
		{TS: 1150, Kind: KindRespond, Slot: 3, Arg: 1},
		{TS: 1250, Kind: KindClientComplete, Slot: 3, Arg: 1},

		{TS: 2000, Kind: KindClientIssue, Slot: 0, Arg: 2}, // never served
	}
	b := Attribute(evs)
	if b.Ops != 2 || b.Partial != 1 {
		t.Fatalf("Ops = %d Partial = %d, want 2 and 1", b.Ops, b.Partial)
	}
	if got := b.SlotWait.Max(); got != 200 {
		t.Errorf("SlotWait max = %d, want 200", got)
	}
	if got := b.Service.Max(); got != 150 {
		t.Errorf("Service max = %d, want 150", got)
	}
	if got := b.RespWait.Max(); got != 100 {
		t.Errorf("RespWait max = %d, want 100", got)
	}
	if got := b.Total.Max(); got != 400 {
		t.Errorf("Total max = %d, want 400", got)
	}
	tab := b.Table()
	for _, phase := range []string{"slot-wait", "service", "response-wait", "total"} {
		if !strings.Contains(tab, phase) {
			t.Errorf("Table missing %q:\n%s", phase, tab)
		}
	}
	if !strings.Contains(b.CSV(), "slot-wait,2,") {
		t.Errorf("CSV missing slot-wait row:\n%s", b.CSV())
	}
}

func TestAttributeEmpty(t *testing.T) {
	b := Attribute(nil)
	if b.Ops != 0 || b.Table() != "" {
		t.Fatalf("empty attribution: Ops=%d Table=%q", b.Ops, b.Table())
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	requests := 41.0
	r.Add("server stats", func() []Row {
		return []Row{
			{Name: "ffwd_requests_total", Key: "requests", Help: "delegated calls served", Value: requests},
			{Name: "ffwd_active_clients", Key: "active", Help: "clients connected", Value: 7},
		}
	})
	r.Add("batch stats", func() []Row {
		return []Row{{Name: "ffwd_batch_p50", Key: "batch_p50", Help: "median batch", Value: 2.5}}
	})
	requests = 1e6 // sinks read at render time, and print integers in full

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	want := "# HELP ffwd_active_clients clients connected\n# TYPE ffwd_active_clients gauge\nffwd_active_clients 7\n" +
		"# HELP ffwd_batch_p50 median batch\n# TYPE ffwd_batch_p50 gauge\nffwd_batch_p50 2.5\n" +
		"# HELP ffwd_requests_total delegated calls served\n# TYPE ffwd_requests_total counter\nffwd_requests_total 1000000\n"
	if body != want {
		t.Errorf("exposition =\n%s\nwant\n%s", body, want)
	}
	vars := r.Vars().(map[string]float64)
	if len(vars) != 3 || vars["requests"] != 1e6 || vars["active"] != 7 || vars["batch_p50"] != 2.5 {
		t.Errorf("Vars = %v", vars)
	}
	report := r.Sample().Report()
	if len(report) != 2 || report[0] != "server stats: requests=1000000 active=7" || report[1] != "batch stats: batch_p50=2.5" {
		t.Errorf("Report = %q", report)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	rejects := func(what string, r *Registry, row Row) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		r.Add("g", func() []Row { return []Row{row} })
	}
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		rejects("name "+bad, NewRegistry(), Row{Name: bad, Key: "k"})
		rejects("key "+bad, NewRegistry(), Row{Name: "n", Key: bad})
	}
	r := NewRegistry()
	r.Add("g", func() []Row { return []Row{{Name: "dup_total", Key: "dup"}} })
	rejects("duplicate name", r, Row{Name: "dup_total", Key: "other"})
	rejects("duplicate key", r, Row{Name: "other_total", Key: "dup"})
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Error("KindByName accepted an unknown name")
	}
}

// TestEventRecordingAllocFree: the recording path must not allocate — it
// sits inside the delegation hot path when tracing is on.
func TestEventRecordingAllocFree(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 1, ServerCap: 1 << 20, ClientCap: 1 << 20})
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Event(KindClientIssue, 0, 1)
		s.Event(KindExecute, 0, 1)
	}); allocs > 0 {
		t.Errorf("Event allocates %.2f objects per op, want 0", allocs)
	}
}

// TestEventBatchRoutes: a batch lands whole on the ring named by its first
// event — client batches on the slot ring, server batches on the server
// ring — and the events come back in timestamp order with their payloads
// intact.
func TestEventBatchRoutes(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 2, ServerCap: 16, ClientCap: 16})
	s.EventBatch([]Event{
		{TS: s.Now(), Kind: KindClientIssue, Slot: 1, Arg: 7},
		{TS: s.Now(), Kind: KindClientWaitStart, Slot: 1, Arg: 7},
		{TS: s.Now(), Kind: KindClientComplete, Slot: 1, Arg: 7},
	})
	s.EventBatch([]Event{
		{TS: s.Now(), Kind: KindSweepStart, Slot: -1, Arg: 1},
		{TS: s.Now(), Kind: KindExecute, Slot: 1, Arg: 7},
		{TS: s.Now(), Kind: KindRespond, Slot: 1, Arg: 7},
	})
	s.EventBatch(nil) // no-op
	evs := s.Snapshot()
	if len(evs) != 6 {
		t.Fatalf("Snapshot len = %d, want 6", len(evs))
	}
	counts := CountByKind(evs)
	for _, k := range []Kind{KindClientIssue, KindClientWaitStart, KindClientComplete,
		KindSweepStart, KindExecute, KindRespond} {
		if counts[k] != 1 {
			t.Errorf("count[%v] = %d, want 1", k, counts[k])
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("snapshot not time-ordered at %d", i)
		}
	}
	if s.Drops() != 0 {
		t.Errorf("Drops = %d, want 0", s.Drops())
	}
}

// TestEventBatchRecordUntilFull: a batch overflowing the ring publishes
// the prefix that fits and counts the tail as drops, like record-until-
// full single appends.
func TestEventBatchRecordUntilFull(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 1, ServerCap: 4, ClientCap: 4})
	batch := make([]Event, 6)
	for i := range batch {
		batch[i] = Event{TS: s.Now(), Kind: KindExecute, Slot: 0, Arg: uint64(i)}
	}
	s.EventBatch(batch)
	evs := s.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("Snapshot len = %d, want the 4 that fit", len(evs))
	}
	for i, ev := range evs {
		if ev.Arg != uint64(i) {
			t.Fatalf("event %d has arg %d: the published prefix must be the batch's oldest events", i, ev.Arg)
		}
	}
	if s.Drops() != 2 {
		t.Errorf("Drops = %d, want 2", s.Drops())
	}
	// A later batch against the full ring drops whole.
	s.EventBatch(batch[:2])
	if s.Drops() != 4 {
		t.Errorf("Drops = %d after full-ring batch, want 4", s.Drops())
	}
}

// TestEventBatchOutOfRangeSlotDropped mirrors the single-append routing
// guard: a client batch naming a slot without a ring is dropped whole.
func TestEventBatchOutOfRangeSlotDropped(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 1})
	s.EventBatch([]Event{
		{Kind: KindClientIssue, Slot: 5, Arg: 1},
		{Kind: KindClientComplete, Slot: 5, Arg: 1},
	})
	if got := len(s.Snapshot()); got != 0 {
		t.Fatalf("Snapshot len = %d, want 0", got)
	}
	if s.Drops() != 2 {
		t.Errorf("Drops = %d, want 2", s.Drops())
	}
}

// TestEventBatchAllocFree: the batched path is the traced hot path's
// backbone; it must not allocate.
func TestEventBatchAllocFree(t *testing.T) {
	s := NewTraceSink(SinkConfig{Clients: 1, ServerCap: 1 << 20, ClientCap: 1 << 20})
	var buf [4]Event
	if allocs := testing.AllocsPerRun(1000, func() {
		ts := s.Now()
		buf[0] = Event{TS: ts, Kind: KindExecute, Slot: 0, Arg: 1}
		buf[1] = Event{TS: ts, Kind: KindRespond, Slot: 0, Arg: 1}
		s.EventBatch(buf[:2])
	}); allocs > 0 {
		t.Errorf("EventBatch allocates %.2f objects per op, want 0", allocs)
	}
}
