package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// This file holds the metric vocabulary, the BENCHMARK.json reader, and
// the conversion of what a leg observed into named, unit-carrying
// values — both the human-readable listing and results.json.

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) endToEnd(name string) *metricSpec {
	for i := range s.EndToEnd {
		if s.EndToEnd[i].Name == name {
			return &s.EndToEnd[i]
		}
	}
	return nil
}

// e2eDefs is the end-to-end metric list, in print order. Two of the
// issue's seven are deliberately not among them. fail_ratio is zero on
// every healthy run, and the benchmark contract has no place for a
// metric whose median is zero, so it travels as the
// attempted/failed/correct fields of the result line (and as fail_ratio
// in results.json). lat_p99_us could not be held within any admissible
// bound by two clean sets of runs on the sizing host (run-to-run spread
// 10–49 % against a cap of 25 %), so by the issue's own rule it is
// demoted to the per-layer list as ffwdserve.lat_p99_us rather than
// given a wider bound; README.md records the measurements.
var e2eDefs = []struct{ name, unit, better string }{
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// metricOut is one reported value. Samples is the number of
// observations behind it; Windows the per-window (or per-repetition)
// values whose median it is.
type metricOut struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
	// Unsupported marks a percentile with fewer than ten samples beyond
	// it even over the whole run: printed, but not to be trusted.
	Unsupported bool `json:"unsupported,omitempty"`
	// OfMachine is the value as a multiple of the machine.* calibration
	// metric named by Machine.
	OfMachine float64 `json:"of_machine,omitempty"`
	Machine   string  `json:"machine,omitempty"`
}

// pathTerm is one line of a workload's reconciliation: a layer's per-op
// self time on the blocking path, and that time scaled by the queueing
// depth.
type pathTerm struct {
	Name    string  `json:"name"`
	PerOpUS float64 `json:"per_op_us"`
	TotalUS float64 `json:"total_us"`
}

// workloadOut is everything reported for one workload.
type workloadOut struct {
	Attempted    uint64  `json:"attempted"`
	Failed       uint64  `json:"failed"`
	FailRatio    float64 `json:"fail_ratio"`
	Violations   uint64  `json:"oracle_violations"`
	ReadBackKeys uint64  `json:"read_back_keys,omitempty"`
	ReadBackLost uint64  `json:"read_back_lost,omitempty"`

	// Commands is every server command line the workload spawned.
	Commands []string `json:"server_commands,omitempty"`

	EndToEnd map[string]metricOut `json:"end_to_end,omitempty"`
	PerLayer map[string]metricOut `json:"per_layer,omitempty"`

	// Reconcile is Σ(layer self times on the blocking path) +
	// ffwdserve.residual_us = ReconcileP50US.
	Reconcile      []pathTerm `json:"reconcile,omitempty"`
	ReconcileP50US float64    `json:"reconcile_lat_p50_us,omitempty"`
	Depth          float64    `json:"depth,omitempty"`
}

func (o *workloadOut) count(res *legResult) {
	a, f := res.attemptedFailed()
	o.Attempted += a
	o.Failed += f
	o.Violations += res.violations
	o.ReadBackKeys += res.readBack
	o.ReadBackLost += res.lost
	if o.Attempted > 0 {
		o.FailRatio = float64(o.Failed) / float64(o.Attempted)
	}
}

// e2eMetrics turns a leg into the end-to-end metrics.
func e2eMetrics(res *legResult) map[string]metricOut {
	out := make(map[string]metricOut, len(e2eDefs))
	ops, _ := res.totals()
	winS := float64(res.rec.winDur) / 1e9

	rate := make([]float64, nWindows)
	cpu := make([]float64, 0, nWindows)
	for i := range res.rec.wins {
		rate[i] = float64(res.rec.wins[i].ops) / winS
		if n := res.rec.wins[i].ops; n > 0 {
			cpu = append(cpu, res.cpuWin[i]/float64(n))
		}
	}
	out["ops_per_s"] = metricOut{Value: median(rate), Unit: "1/s", Samples: int(ops), Windows: rate}
	out["cpu_us_per_op"] = metricOut{Value: median(cpu), Unit: "us", Samples: int(ops), Windows: cpu}

	out["lat_p50_us"] = latencyMetric(res, 0.5)

	out["peak_rss_mb"] = metricOut{Value: res.peakRSS, Unit: "MB", Samples: 1}
	out["setup_s"] = metricOut{Value: median(res.setupS), Unit: "s", Samples: len(res.setupS), Windows: res.setupS}
	return out
}

// latencyMetric is the median over windows of the q-quantile of the
// sampled issue→reply latencies.
func latencyMetric(res *legResult, q float64) metricOut {
	vals, samples, ok := windowPercentiles(res.rec, q)
	return metricOut{Value: median(vals), Unit: "us", Samples: samples, Windows: vals, Unsupported: !ok}
}

// header records what a result was measured on.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	BuildS     float64 `json:"build_s,omitempty"`
}

// resultsFile is results.json.
type resultsFile struct {
	Header    header                  `json:"header"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

func printHeader(w io.Writer, h *header) {
	fmt.Fprintf(w, "# ffwd benchmark: commit=%s go=%s nproc=%d GOMAXPROCS=%d kernel=%s seed=%d seconds=%g\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Kernel, h.Seed, h.Seconds)
	if h.BuildS > 0 {
		fmt.Fprintf(w, "# build_s=%.3f\n", h.BuildS)
	}
}

func printMetric(w io.Writer, name string, m metricOut) {
	fmt.Fprintf(w, "  %-34s %14.4f %-5s", name, m.Value, m.Unit)
	if m.Samples > 0 {
		fmt.Fprintf(w, " samples=%d", m.Samples)
	}
	if len(m.Windows) > 0 {
		q1, q3 := quartiles(m.Windows)
		fmt.Fprintf(w, " windows=%d q1=%.4g q3=%.4g", len(m.Windows), q1, q3)
	}
	if m.Machine != "" {
		fmt.Fprintf(w, " = %.3g x %s", m.OfMachine, m.Machine)
	}
	if m.Unsupported {
		fmt.Fprint(w, " UNSUPPORTED(<10 samples beyond)")
	}
	fmt.Fprintln(w)
}

// printWorkload lists every metric of one workload by name with its
// unit and sample count, then its reconciliation.
func printWorkload(w io.Writer, name string, o *workloadOut) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d fail_ratio=%g oracle_violations=%d",
		name, o.Attempted, o.Failed, o.FailRatio, o.Violations)
	if o.ReadBackKeys > 0 {
		fmt.Fprintf(w, " read_back=%d lost=%d", o.ReadBackKeys, o.ReadBackLost)
	}
	fmt.Fprintln(w)
	for _, c := range o.Commands {
		fmt.Fprintf(w, "  # %s\n", c)
	}
	for _, d := range e2eDefs {
		if m, ok := o.EndToEnd[d.name]; ok {
			printMetric(w, d.name, m)
		}
	}
	for _, d := range layerDefs {
		if m, ok := o.PerLayer[d.name]; ok {
			printMetric(w, d.name, m)
		}
	}
	if len(o.Reconcile) == 0 {
		return
	}
	fmt.Fprintf(w, "  reconcile %s (depth %g): lat_p50_us %.3f =\n", name, o.Depth, o.ReconcileP50US)
	var sum float64
	for _, t := range o.Reconcile {
		fmt.Fprintf(w, "    %-34s %12.3f us  (%.4f us/op x depth)\n", t.Name, t.TotalUS, t.PerOpUS)
		sum += t.TotalUS
	}
	fmt.Fprintf(w, "    %-34s %12.3f us\n", "= sum incl. ffwdserve.residual_us", sum)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted uint64                     `json:"attempted"`
	Failed    uint64                     `json:"failed"`
	Metrics   map[string]resultLineValue `json:"metrics"`
}

type resultLineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(o *workloadOut, metrics map[string]metricOut) ([]byte, error) {
	line := resultLine{
		Correct:   o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]resultLineValue, len(metrics)),
	}
	for name, m := range metrics {
		line.Metrics[name] = resultLineValue{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

func writeResults(path string, rf *resultsFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func uniq(xs []string) []string {
	var out []string
	for _, x := range xs {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}
