package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// This file is the traced run: a short untraced leg, the same leg with
// the existing trace hooks on and client spans recorded, the layer
// replay, and the reconciliation of the three. It is separate from, and
// never mixed into, the end-to-end figures.

// layerBudget is the time each layer measurement gets. It is capped so
// that the traced core loop cannot overflow its trace rings.
func layerBudget(seconds float64) time.Duration {
	b := time.Duration(seconds * 15 * float64(time.Millisecond))
	return min(max(b, 2*time.Millisecond), 200*time.Millisecond)
}

// runTraced produces every per-layer metric for w and writes the trace
// to outDir/trace-<workload>.json.
func (e *env) runTraced(w *workload, seed uint64, seconds float64, outDir string) (*workloadOut, error) {
	legDur := secondsDur(seconds * 0.3)
	spans := newSpanLog(1 << 17)

	base, err := e.runLeg(w, legOpts{seed: seed, measure: legDur, setups: 1})
	if err != nil {
		return nil, fmt.Errorf("untraced leg: %w", err)
	}
	spans.leg = spans.open("leg.traced", 0)
	traced, err := e.runLeg(w, legOpts{seed: seed, measure: legDur, setups: 1, trace: true, restart: true, spans: spans})
	spans.end(spans.leg)
	if err != nil {
		return nil, fmt.Errorf("traced leg: %w", err)
	}

	dir, err := workDir(e.scratch, "layers")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	vals, err := runLayers(w, seed, layerBudget(seconds), dir, spans)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	out := &workloadOut{Commands: e.takeCommands()}
	out.count(base)
	out.count(traced)
	baseM, tracedM := e2eMetrics(base), e2eMetrics(traced)
	ops := float64(traced.rec.totalOps())
	if ops == 0 || base.rec.totalOps() == 0 {
		return nil, fmt.Errorf("%s: a leg completed no operations", w.name)
	}

	// The tail the client saw on the untraced leg: demoted from the
	// end-to-end list because no admissible bound holds it run to run.
	p99 := latencyMetric(base, 0.99)
	vals["ffwdserve.lat_p99_us"] = p99.Value

	// What only the serving instance of the traced leg can tell.
	if traced.sweeps > 0 {
		vals["ffwdserve.requests_per_sweep"] = float64(traced.requests) / float64(traced.sweeps)
	}
	if traced.flushes > 0 {
		vals["ffwdserve.requests_per_flush"] = float64(traced.requests) / float64(traced.flushes)
	}
	vals["ffwdserve.ctx_switches_per_op"] = float64(traced.ctxSw) / ops
	switch {
	case traced.store.ok && traced.store.hits+traced.store.misses > 0:
		vals["ffwdserve.store_hit_ratio"] = float64(traced.store.hits) / float64(traced.store.hits+traced.store.misses)
	case traced.readBack > 0:
		// The replicated stats verb reports the group, not the store; what
		// the client saw on read-back stands in for it.
		vals["ffwdserve.store_hit_ratio"] = float64(traced.readBack-traced.lost) / float64(traced.readBack)
	}
	vals["ffwdserve.evictions_per_kop"] = float64(traced.store.evictions) / ops * 1e3
	vals["ffwdserve.restart_ms"] = traced.restartMS
	vals["obs.traced_ops_ratio"] = tracedM["ops_per_s"].Value / baseM["ops_per_s"].Value
	vals["obs.trace_events_per_op"] = float64(traced.traceEvents) / ops
	vals["obs.trace_drops"] = float64(traced.traceDrops)
	vals["loadgen.cpu_us_per_op"] = traced.genCPU / ops
	vals["loadgen.send_stall_ratio"] = traced.stallFrac

	p50 := baseM["lat_p50_us"].Value
	terms := blockingPath(w, vals)
	var sum float64
	for i := range terms {
		terms[i].TotalUS = terms[i].PerOpUS * w.depth
		sum += terms[i].TotalUS
	}
	vals["ffwdserve.residual_us"] = p50 - sum
	out.Reconcile = append(terms, pathTerm{Name: "ffwdserve.residual_us", TotalUS: p50 - sum, PerOpUS: (p50 - sum) / w.depth})
	out.ReconcileP50US, out.Depth = p50, w.depth

	out.PerLayer = make(map[string]metricOut, len(layerDefs))
	for _, d := range layerDefs {
		m := metricOut{Value: vals[d.name], Unit: d.unit}
		if d.name == "ffwdserve.lat_p99_us" {
			m = p99
		}
		if d.machine != "" && vals[d.machine] > 0 {
			m.Machine, m.OfMachine = d.machine, m.Value/vals[d.machine]*unitRatio(d.unit, d.machine)
		}
		out.PerLayer[d.name] = m
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, spans, traced.events, traced.eventsOffset); err != nil {
		return nil, err
	}
	self := spans.selfTimes()
	e.log("%s: trace %s (%d spans, %d dropped; replay harness self time %.1f ms)",
		w.name, path, len(spans.spans), spans.drops, float64(self["replay"])/1e6)
	return out, nil
}

// unitRatio converts a value in unit to the unit of the machine metric
// it is compared with (both are ns or us).
func unitRatio(unit, machine string) float64 {
	machineNS := machine == mLine
	switch {
	case unit == "us" && machineNS:
		return 1e3
	case unit == "ns" && !machineNS:
		return 1e-3
	}
	return 1
}

// blockingPath lists, for w, the layers an op waits on in series with
// each one's self time per op in µs. Where one layer measurement
// contains another's work — the null frontend round trip contains a
// loopback round trip and the four codec calls; an on-disk propose
// contains two appends and a replication round trip — the inner
// ones are subtracted, so the terms add up without double counting.
// What the path does not explain is the residual.
func blockingPath(w *workload, v map[string]float64) []pathTerm {
	ns := func(name string) pathTerm { return pathTerm{Name: name, PerOpUS: v[name] / 1e3} }
	us := func(name string) pathTerm { return pathTerm{Name: name, PerOpUS: v[name]} }
	wire := (v["wireproto.encode_req_ns"] + v["wireproto.decode_req_ns"] +
		v["wireproto.encode_resp_ns"] + v["wireproto.decode_resp_ns"]) / 1e3
	core := ns("core.pipelined_ns")
	if w.window == 1 {
		core = ns("core.delegate_ns")
	}
	switch w.tgt {
	case targetLib:
		return []pathTerm{core, ns("apps.kv_stream_ns")}
	case targetBinary:
		if w.window == 1 {
			// A lone request finds the delegation server parked.
			return []pathTerm{
				us(mLoopback),
				{Name: "frontend.null_rtt_us - loopback - wireproto", PerOpUS: v["frontend.null_rtt_us"] - v[mLoopback] - wire},
				{Name: "wireproto.*_ns (4 codec calls)", PerOpUS: wire},
				ns("core.wake_ns"),
				ns("apps.kv_stream_ns"),
			}
		}
		return []pathTerm{
			{Name: "1/frontend.null_sat_ops_per_s - wireproto", PerOpUS: 1e6/v["frontend.null_sat_ops_per_s"] - wire},
			{Name: "wireproto.*_ns (4 codec calls)", PerOpUS: wire},
			core,
			ns("apps.kv_stream_ns"),
		}
	case targetText:
		// The text frontend lives in package main of cmd/ffwdserve and has
		// no function callable from outside, so its parser, per-connection
		// goroutine and reply flush are all residual. Each command is one
		// synchronous delegation.
		return []pathTerm{ns("core.delegate_ns"), ns("apps.kv_stream_ns")}
	case targetDurable:
		appends := 2 * v["replog.append_nosync_ns"] / 1e3
		return []pathTerm{
			ns("core.delegate_ns"),
			{Name: "replog.append_nosync_ns x 2 (leader, follower)", PerOpUS: appends},
			us("reptrans.replicate_rtt_us"),
			{Name: "replica.propose_nosync_us - appends - rtt", PerOpUS: v["replica.propose_nosync_us"] -
				appends - v["reptrans.replicate_rtt_us"]},
		}
	}
	return nil
}
