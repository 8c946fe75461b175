package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The self-tests keep tier-1 fast: windows are 20–30 ms, the layer
// budget a few ms, and only one test spawns processes.

// reMetricName is the contract's shape of a workload or metric name.
var reMetricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	return &env{root: root, scratch: t.TempDir(), log: t.Logf}
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same units and directions, inside the contract's limits.
func TestSpecMatchesCode(t *testing.T) {
	spec := testSpec(t)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	if !slices.Equal(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !reMetricName.MatchString(n) {
			t.Errorf("name %q does not match %v", n, reMetricName)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		if !strings.Contains(w.Why, "closed loop") {
			t.Errorf("workload %s: why must state that the load is closed loop", w.Name)
		}
	}

	if len(spec.EndToEnd) != len(e2eDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(e2eDefs))
	}
	for i, m := range spec.EndToEnd {
		name(m.Name)
		d := e2eDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := spec.endToEnd("setup_s"); s == nil || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", s)
	} else {
		for _, m := range spec.EndToEnd {
			if m.Bound > s.Bound {
				t.Errorf("setup_s must carry the largest bound; %s has %g > %g", m.Name, m.Bound, s.Bound)
			}
		}
	}

	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(layerDefs))
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		name(m.Name)
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != 0 {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
		if d.machine != "" && !seen[d.machine] {
			t.Errorf("%s refers to machine metric %q before it is defined", d.name, d.machine)
		}
	}
}

// Every name a run prints is a name in BENCHMARK.json and the reverse,
// for both kinds of run, and the result line carries exactly those.
func TestPrintedNamesMatchSpec(t *testing.T) {
	spec := testSpec(t)
	e := testEnv(t)
	w := workloadByName("lib-pipelined-churn")

	var want []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
	}
	slices.Sort(want)
	out, err := e.runEndToEnd(w, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "end-to-end run", sortedKeys(out.EndToEnd), want)
	if out.Failed != 0 || out.Attempted == 0 {
		t.Errorf("attempted=%d failed=%d", out.Attempted, out.Failed)
	}
	for n, m := range out.EndToEnd {
		if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v: end-to-end metrics must be positive finite numbers", n, m.Value)
		}
	}
	checkLine(t, out, out.EndToEnd, want)

	want = want[:0]
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
	}
	slices.Sort(want)
	outDir := t.TempDir()
	tr, err := e.runTraced(w, 1, 0.3, outDir)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "traced run", sortedKeys(tr.PerLayer), want)
	for n, m := range tr.PerLayer {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", n, m.Value)
		}
	}
	checkLine(t, tr, tr.PerLayer, want)

	// The reconciliation is an identity: path terms + residual = p50.
	var sum float64
	for _, term := range tr.Reconcile {
		sum += term.TotalUS
	}
	if math.Abs(sum-tr.ReconcileP50US) > 1e-6*math.Max(1, tr.ReconcileP50US) {
		t.Errorf("reconciliation sums to %g us, lat_p50_us is %g", sum, tr.ReconcileP50US)
	}
	var printed bytes.Buffer
	printWorkload(&printed, w.name, tr)
	for _, n := range want {
		if !strings.Contains(printed.String(), "  "+n+" ") {
			t.Errorf("listing does not print %s", n)
		}
	}
	if !strings.Contains(printed.String(), "reconcile "+w.name) {
		t.Error("listing does not print the reconciliation")
	}

	// The trace is Chrome trace JSON whose spans carry id, parent and op,
	// and cmd/ffwdtrace's reader finds the delegation events in it.
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s is not JSON: %v", path, err)
	}
	names := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
			for _, k := range []string{"id", "parent", "op"} {
				if _, ok := ev.Args[k]; !ok {
					t.Fatalf("span %s has no %q", ev.Name, k)
				}
			}
		}
	}
	for _, n := range []string{"client.op", "replay", "core.delegate", "apps.kv_stream", "replog.append_sync", "replica.propose_durable"} {
		if names[n] == 0 {
			t.Errorf("trace has no %s span", n)
		}
	}
	if evs, err := readServerTrace(path); err != nil || len(evs) == 0 {
		t.Errorf("obs.ReadChrome found %d delegation events in the trace (err %v)", len(evs), err)
	}
}

// sameNames reports the names only one of the two sorted lists has.
func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("%s prints %s, which BENCHMARK.json does not name", what, n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("%s does not print %s, which BENCHMARK.json names", what, n)
		}
	}
}

func checkLine(t *testing.T, o *workloadOut, metrics map[string]metricOut, want []string) {
	t.Helper()
	b, err := contractLine(o, metrics)
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(line); !slices.Equal(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result line has keys %v", got)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "result line", sortedKeys(ms), want)
	for n, m := range ms {
		if got := sortedKeys(m); !slices.Equal(got, []string{"unit", "value"}) {
			t.Errorf("result line metric %s has keys %v", n, got)
		}
	}
}

// A percentile is refused unless ten samples lie beyond it, and thin
// windows are merged until the percentile is supported.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []uint32 {
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = uint32(i + 1)
		}
		return xs
	}
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Error("p99 of 999 samples was accepted: only 9 lie beyond it")
	}
	if v, ok := percentile(mk(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(mk(19), 0.5); ok {
		t.Error("p50 of 19 samples was accepted: only 9 lie beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing was accepted")
	}

	rec := newRecorder(time.Now(), time.Second, 0)
	for i := range rec.wins {
		rec.wins[i].lat = mk(300)
	}
	vals, samples, ok := windowPercentiles(rec, 0.99)
	if !ok || samples != 3000 || len(vals) != 2 {
		t.Errorf("10 windows of 300 samples: %d values, %d samples, ok=%v; want 2 merged windows of 1500", len(vals), samples, ok)
	}
	vals, _, ok = windowPercentiles(rec, 0.5)
	if !ok || len(vals) != nWindows {
		t.Errorf("p50 needed merging: %d windows, ok=%v", len(vals), ok)
	}
	for i := range rec.wins {
		rec.wins[i].lat = mk(50)
	}
	if vals, _, ok = windowPercentiles(rec, 0.99); ok || len(vals) != 1 {
		t.Errorf("p99 of 500 samples in all: %d windows, ok=%v; want one unsupported value", len(vals), ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 7, 4, 5, 6}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %g, %g; want 1, 4", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g", m)
	}
}

// issueAck pushes one op through the oracle with the given reply.
func issueAck(o *oracle, kind opKind, key uint64, r func(val uint64) reply) bool {
	p := op{kind: kind, key: key}
	var f inflight
	o.issue(&p, &f)
	return o.complete(&f, r(p.val))
}

func stored(uint64) reply { return reply{status: stStored} }

// The mutant leg: a serving side that answers a GET with a version older
// than one already acknowledged, or with one never issued, or with
// another key's value, must be caught — while every legal answer under
// pipelined reordering passes.
func TestOracleRejectsStaleGet(t *testing.T) {
	const key = 7
	value := func(ver uint64) reply { return reply{status: stValue, val: key<<versionBits | ver} }
	o := newOracle(16, false)
	for i := 0; i < 3; i++ {
		if !issueAck(o, opSet, key, stored) {
			t.Fatal("an acknowledged SET was rejected")
		}
	}
	if !issueAck(o, opGet, key, func(uint64) reply { return value(3) }) {
		t.Error("a GET returning the latest acknowledged version was rejected")
	}

	// A write still in flight may or may not be visible to a later GET.
	w := op{kind: opSet, key: key}
	var wf inflight
	o.issue(&w, &wf) // version 4 issued, not acknowledged
	if !issueAck(o, opGet, key, func(uint64) reply { return value(3) }) {
		t.Error("a GET overtaking an unacknowledged SET was rejected")
	}
	if !issueAck(o, opGet, key, func(uint64) reply { return value(4) }) {
		t.Error("a GET observing an unacknowledged SET was rejected")
	}
	// A GET issued before the acknowledgement keeps its older floor.
	early := op{kind: opGet, key: key}
	var ef inflight
	o.issue(&early, &ef)
	o.complete(&wf, reply{status: stStored})
	if !o.complete(&ef, value(3)) {
		t.Error("a GET issued before the SET was acknowledged must accept the older version")
	}
	if o.violations != 0 {
		t.Fatalf("%d violations on a legal history", o.violations)
	}

	for name, r := range map[string]reply{
		"stale version":      value(3),
		"unissued version":   value(5),
		"another key":        {status: stValue, val: 8<<versionBits | 4},
		"miss on a fit key":  {status: stMiss},
		"wrong reply status": {status: stStored},
	} {
		before := o.violations
		if issueAck(o, opGet, key, func(uint64) reply { return r }) || o.violations != before+1 {
			t.Errorf("%s was not rejected", name)
		}
	}
	if issueAck(o, opSet, key, func(uint64) reply { return reply{status: stFail} }) {
		t.Error("a refused SET counted as completed")
	}

	// On an evicting workload a miss is legal; a stale hit still is not.
	churn := newOracle(16, true)
	issueAck(churn, opSet, key, stored)
	issueAck(churn, opSet, key, stored)
	if !issueAck(churn, opGet, key, func(uint64) reply { return reply{status: stMiss} }) {
		t.Error("a miss was rejected on a workload where entries are evicted")
	}
	if issueAck(churn, opGet, key, func(uint64) reply { return value(1) }) {
		t.Error("a stale hit was accepted on an evicting workload")
	}
}

// The other mutant: after a crash, a key whose acknowledged write is
// gone — absent, or rolled back to an older version — must be counted
// lost; an unacknowledged write may have landed or not.
func TestOracleRejectsLostDurableWrite(t *testing.T) {
	const key = 3
	value := func(ver uint64) reply { return reply{status: stValue, val: key<<versionBits | ver} }
	o := newOracle(8, false)
	issueAck(o, opSet, key, stored)
	issueAck(o, opSet, key, stored)
	unacked := op{kind: opSet, key: key}
	var f inflight
	o.issue(&unacked, &f) // version 3, never acknowledged

	for _, ok := range []reply{value(2), value(3)} {
		if !o.readBack(key, ok) {
			t.Errorf("read-back of %v rejected: acknowledged version is 2, issued 3", ok)
		}
	}
	if !o.readBack(5, reply{status: stMiss}) {
		t.Error("a never-written key must read back as a miss")
	}
	for name, r := range map[string]reply{
		"rolled back":     value(1),
		"lost":            {status: stMiss},
		"never issued":    value(4),
		"server error":    {status: stFail},
		"other key's val": {status: stValue, val: 5<<versionBits | 2},
	} {
		before := o.violations
		if o.readBack(key, r) || o.violations != before+1 {
			t.Errorf("%s write was not counted lost", name)
		}
	}
}

// The op stream is a function of (seed, connection), and its writes walk
// a full-cycle permutation: no key is written twice within one cycle.
func TestStreamDeterministicAndWriteWalk(t *testing.T) {
	for _, w := range workloads {
		w := w
		for conn := 0; conn < w.conns; conn++ {
			a, b := newStream(&w, 42, conn), newStream(&w, 42, conn)
			other := newStream(&w, 43, conn)
			span := int(w.keys) / w.conns
			lastWrite := map[uint64]int{}
			writes, differs := 0, false
			for i := 0; i < 20000; i++ {
				oa, _ := a.next()
				ob, _ := b.next()
				oc, _ := other.next()
				if oa != ob {
					t.Fatalf("%s conn %d: op %d differs between two streams of one seed", w.name, conn, i)
				}
				differs = differs || oa != oc
				if oa.key >= w.keys || oa.key%uint64(w.conns) != uint64(conn) {
					t.Fatalf("%s conn %d: key %d outside the connection's partition", w.name, conn, oa.key)
				}
				if oa.kind == opSet || oa.kind == opSetTTL {
					if at, seen := lastWrite[oa.key]; seen && writes-at < span {
						t.Fatalf("%s conn %d: key %d written again after %d writes, cycle is %d", w.name, conn, oa.key, writes-at, span)
					}
					lastWrite[oa.key] = writes
					writes++
				}
			}
			if !differs {
				t.Errorf("%s conn %d: seeds 42 and 43 gave the same stream", w.name, conn)
			}
			if writes == 0 {
				t.Errorf("%s conn %d: no writes in 20000 ops", w.name, conn)
			}
		}
	}
}

func synthetic(scale float64) *resultsFile {
	win := func(base float64) []float64 {
		xs := make([]float64, nWindows)
		for i := range xs {
			xs[i] = base * (1 + 0.002*float64(i-nWindows/2))
		}
		return xs
	}
	m := func(base float64, unit string) metricOut {
		xs := win(base)
		return metricOut{Value: median(xs), Unit: unit, Samples: 1000, Windows: xs}
	}
	return &resultsFile{Workloads: map[string]*workloadOut{
		"lib-sync": {Attempted: 1000, EndToEnd: map[string]metricOut{
			"ops_per_s":     m(1e6*scale, "1/s"),
			"lat_p50_us":    m(0.8, "us"),
			"cpu_us_per_op": m(1.6, "us"),
			"peak_rss_mb":   {Value: 12, Unit: "MB"},
			"setup_s":       m(0.004, "s"),
		}},
	}}
}

// -compare passes identical inputs and flags a throughput drop ten
// points beyond the metric's bound (the issue's "20 %" assumed an 8 %
// bound; the bound the sizing host can hold is in BENCHMARK.json).
func TestCompareFlagsRegression(t *testing.T) {
	spec := testSpec(t)
	shift := spec.endToEnd("ops_per_s").Bound + 0.10
	dir := t.TempDir()
	write := func(name string, rf *resultsFile) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", synthetic(1))
	slow := write("slow.json", synthetic(1-shift))
	fast := write("fast.json", synthetic(1+shift))

	var out bytes.Buffer
	if code := runCompare(&out, spec, a, a); code != 0 {
		t.Errorf("identical inputs: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "same=5 better=0 worse=0 unresolved=0") {
		t.Errorf("identical inputs were not all same:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(&out, spec, a, slow); code == 0 {
		t.Errorf("a %.0f%% throughput regression exited 0\n%s", shift*100, out.String())
	}
	if !strings.Contains(out.String(), "worse=1 ") {
		t.Errorf("want exactly ops_per_s worse:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(&out, spec, a, fast); code != 0 || !strings.Contains(out.String(), "better=1 ") {
		t.Errorf("a %.0f%% gain: exit %d\n%s", shift*100, code, out.String())
	}

	// A shift beyond the bound that the window spread cannot resolve is
	// unresolved, not worse; failures on either side fail the comparison.
	noisy := synthetic(1 - shift)
	m := noisy.Workloads["lib-sync"].EndToEnd["ops_per_s"]
	for i := range m.Windows {
		m.Windows[i] = (1 - shift) * 1e6 * math.Pow(2, float64(i-nWindows/2)/3)
	}
	noisy.Workloads["lib-sync"].EndToEnd["ops_per_s"] = m
	ops := spec.endToEnd("ops_per_s")
	if v := judge(ops, synthetic(1).Workloads["lib-sync"].EndToEnd["ops_per_s"], m); v != unresolved {
		t.Errorf("overlapping spreads judged %s, want unresolved", v)
	}
	failed := synthetic(1)
	failed.Workloads["lib-sync"].Failed, failed.Workloads["lib-sync"].FailRatio = 1, 0.001
	if code := runCompare(io.Discard, spec, a, write("failed.json", failed)); code == 0 {
		t.Error("a run with failed operations compared clean")
	}
}

// One test drives real processes: the binary path for a moment, then the
// durable pair through kill -9, restart and read-back, on a small key
// space so set-up stays short.
func TestServedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ffwdserve processes")
	}
	e := testEnv(t)

	bin := *workloadByName("serve-binary-sat")
	res, err := e.runLeg(&bin, legOpts{seed: 3, measure: 300 * time.Millisecond, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a, f := res.attemptedFailed(); a == 0 || f != 0 {
		t.Errorf("serve-binary-sat: attempted=%d failed=%d", a, f)
	}
	if res.requests == 0 || res.sweeps == 0 {
		t.Errorf("the server's final stats line was not parsed: requests=%d sweeps=%d", res.requests, res.sweeps)
	}

	dur := *workloadByName("serve-durable-write")
	dur.keys, dur.preload = 128, 128
	res, err = e.runLeg(&dur, legOpts{seed: 3, measure: 300 * time.Millisecond, setups: 1, crash: true, restart: true})
	if err != nil {
		t.Fatal(err)
	}
	if a, f := res.attemptedFailed(); a == 0 || f != 0 {
		t.Errorf("serve-durable-write: attempted=%d failed=%d", a, f)
	}
	if res.readBack != dur.keys || res.lost != 0 {
		t.Errorf("read-back after kill -9: %d keys read, %d lost; want %d, 0", res.readBack, res.lost, dur.keys)
	}
	if res.restartMS <= 0 {
		t.Error("restart-to-first-reply was not timed")
	}
	children.mu.Lock()
	live := len(children.procs)
	children.mu.Unlock()
	if live != 0 {
		t.Errorf("%d server processes still running after the legs", live)
	}
}
