// Package runtimebench is the runtime measurement layer: it sweeps the
// backend registry's cross-product — synchronization scheme × shared
// structure × workload — on the real machine, where internal/bench runs
// the same grid on the simulated machines. Every cell is a fixed-duration
// closed loop: Goroutines workers drive one structure instance through
// per-goroutine handles, with keys and operation mixes from
// internal/workload and per-operation latencies sampled into
// internal/stats log-bucket histograms.
//
// Results carry both throughput (Mops) and latency quantiles
// (p50/p95/p99), and convert to the same bench.Figure shape the simulator
// produces, so cmd/ffwdbench and cmd/ffwdreport can render — and overlay
// — measured and simulated series with one code path.
package runtimebench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/backend"
	_ "ffwd/internal/backend/all" // link every backend into the registry
	"ffwd/internal/bench"
	"ffwd/internal/obs"
	"ffwd/internal/stats"
	"ffwd/internal/workload"
)

// Options configure a sweep.
type Options struct {
	// Backends restricts the sweep to the named backends; nil means
	// every registered backend.
	Backends []string
	// Structures restricts the sweep; nil means counter, set, queue
	// (the CLI's acceptance trio). Use backend.Structures for all.
	Structures []backend.Structure
	// Goroutines lists the worker counts to sweep; nil means {1, 2, 4}.
	Goroutines []int
	// Duration is the per-cell measurement window (default 50ms).
	Duration time.Duration
	// Warmup precedes each measurement window (default Duration/5,
	// minimum 1ms).
	Warmup time.Duration
	// KeySpace is the key range [1, KeySpace] (default 1024); sets and
	// KVs are prefilled to half occupancy.
	KeySpace uint64
	// UpdateRatio is the update fraction for set/KV workloads in [0,1]
	// (default 0.3 — the paper's 70/30 mix).
	UpdateRatio float64
	// Dist selects the key distribution: "uniform" (default) or
	// "zipf".
	Dist string
	// ZipfSkew is the Zipf s parameter when Dist is "zipf" (default
	// 1.2).
	ZipfSkew float64
	// DelayPauses inserts the paper's inter-operation PAUSE delay
	// (default 0: closed loop at full speed).
	DelayPauses int
	// Seed derives every worker's deterministic key/mix streams.
	Seed int64
	// SampleEvery records the latency of every Nth operation per
	// worker (default 8) to bound timing overhead.
	SampleEvery int
	// Shards is the parallelism hint forwarded to sharded backends.
	Shards int
	// TraceDir, when non-empty, attaches a lifecycle-event sink
	// (internal/obs) to every cell of a tracing-capable backend and
	// writes each capture as Chrome trace JSON under the directory,
	// one file per cell: trace-<backend>-<structure>-<goroutines>.json.
	// Backends that ignore Config.Trace produce no file.
	TraceDir string
}

func (o Options) withDefaults() Options {
	if len(o.Structures) == 0 {
		o.Structures = []backend.Structure{backend.StructCounter, backend.StructSet, backend.StructQueue}
	}
	if len(o.Goroutines) == 0 {
		o.Goroutines = []int{1, 2, 4}
	}
	if o.Duration <= 0 {
		o.Duration = 50 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Duration / 5
		if o.Warmup < time.Millisecond {
			o.Warmup = time.Millisecond
		}
	}
	if o.KeySpace == 0 {
		o.KeySpace = 1024
	}
	if o.UpdateRatio == 0 {
		o.UpdateRatio = 0.3
	}
	if o.Dist == "" {
		o.Dist = "uniform"
	}
	if o.ZipfSkew == 0 {
		o.ZipfSkew = 1.2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SampleEvery < 1 {
		o.SampleEvery = 8
	}
	return o
}

// Cell is one measured (backend, structure, goroutines) configuration.
type Cell struct {
	Backend    string `json:"backend"`
	Structure  string `json:"structure"`
	Goroutines int    `json:"goroutines"`
	// Ops is the operation count inside the measurement window.
	Ops uint64 `json:"ops"`
	// Mops is throughput in million operations per second.
	Mops float64 `json:"mops"`
	// GetOps/GetMops isolate read throughput for the expiry/eviction
	// scenarios (RunExpiry), where the acceptance metric is reads
	// sustained while reclamation happens; zero for registry cells.
	GetOps  uint64  `json:"get_ops,omitempty"`
	GetMops float64 `json:"get_mops,omitempty"`
	// Latency quantiles and moments, in nanoseconds, from sampled
	// per-operation timings.
	P50NS  float64 `json:"p50_ns"`
	P95NS  float64 `json:"p95_ns"`
	P99NS  float64 `json:"p99_ns"`
	MeanNS float64 `json:"mean_ns"`
	MaxNS  float64 `json:"max_ns"`
	// Err marks a cell whose construction failed; its numbers are
	// zero.
	Err string `json:"err,omitempty"`
	// Trace is the path of the cell's captured lifecycle trace, when
	// Options.TraceDir was set and the backend supports tracing.
	Trace string `json:"trace,omitempty"`
}

// Report is the outcome of one sweep.
type Report struct {
	// Layer is "runtime" for measured cells, "sim" for simulated ones.
	Layer string `json:"layer"`
	// Machine names the simulated machine for sim reports; for runtime
	// reports it is "host".
	Machine string `json:"machine"`
	Cells   []Cell `json:"cells"`
}

// Run executes the sweep and returns one cell per backend × supported
// structure × goroutine count. Unknown backend names are an error;
// unsupported (backend, structure) pairs are skipped silently — that is
// the registry's Supports contract, not a failure.
func Run(o Options) (Report, error) {
	o = o.withDefaults()
	backends, err := resolveBackends(o.Backends)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Layer: "runtime", Machine: "host"}
	for _, st := range o.Structures {
		for _, b := range backends {
			if !b.Supports(st) {
				continue
			}
			for _, g := range o.Goroutines {
				rep.Cells = append(rep.Cells, runCell(o, b, st, g))
			}
		}
	}
	return rep, nil
}

func resolveBackends(names []string) ([]*backend.Backend, error) {
	if len(names) == 0 {
		return backend.All(), nil
	}
	var out []*backend.Backend
	for _, n := range names {
		b, ok := backend.Get(n)
		if !ok {
			return nil, fmt.Errorf("runtimebench: unknown backend %q (have: %v)", n, backend.Names())
		}
		out = append(out, b)
	}
	return out, nil
}

// runCell measures one configuration, mapping the structure kind to its
// typed constructor and driver.
func runCell(o Options, b *backend.Backend, st backend.Structure, g int) Cell {
	cell := Cell{Backend: b.Name, Structure: string(st), Goroutines: g}
	cfg := backend.Config{Goroutines: g + 1, Shards: o.Shards, KeySpace: o.KeySpace}.WithDefaults()
	var sink *obs.TraceSink
	if o.TraceDir != "" {
		sink = obs.NewTraceSink(obs.SinkConfig{Clients: cfg.Goroutines})
		cfg.Trace = sink
	}
	var m metrics
	var err error
	switch st {
	case backend.StructCounter:
		m, err = measure(o, g, b.Counter, cfg, nil,
			func(h backend.Counter, w *worker) { h.Add(1) })
	case backend.StructSet:
		m, err = measure(o, g, b.Set, cfg,
			func(h backend.Set) {
				for k := uint64(2); k <= o.KeySpace; k += 2 {
					h.Insert(k)
				}
			},
			func(h backend.Set, w *worker) {
				k := w.keys.Next()
				switch w.mix.Next() {
				case workload.OpContains:
					h.Contains(k)
				case workload.OpInsert:
					h.Insert(k)
				default:
					h.Remove(k)
				}
			})
	case backend.StructQueue:
		m, err = measure(o, g, b.Queue, cfg,
			func(h backend.Queue) {
				for i := uint64(0); i < 128; i++ {
					h.Enqueue(i)
				}
			},
			func(h backend.Queue, w *worker) {
				if w.toggle = !w.toggle; w.toggle {
					h.Enqueue(w.keys.Next())
				} else {
					h.Dequeue()
				}
			})
	case backend.StructStack:
		m, err = measure(o, g, b.Stack, cfg,
			func(h backend.Stack) {
				for i := uint64(0); i < 128; i++ {
					h.Push(i)
				}
			},
			func(h backend.Stack, w *worker) {
				if w.toggle = !w.toggle; w.toggle {
					h.Push(w.keys.Next())
				} else {
					h.Pop()
				}
			})
	case backend.StructKV:
		m, err = measure(o, g, b.KV, cfg,
			func(h backend.KV) {
				for k := uint64(2); k <= o.KeySpace; k += 2 {
					h.Put(k, k)
				}
			},
			func(h backend.KV, w *worker) {
				k := w.keys.Next()
				switch w.mix.Next() {
				case workload.OpContains:
					h.Get(k)
				case workload.OpInsert:
					h.Put(k, k)
				default:
					h.Delete(k)
				}
			})
	default:
		err = fmt.Errorf("runtimebench: unknown structure %q", st)
	}
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Ops = m.ops
	if m.elapsed > 0 {
		cell.Mops = float64(m.ops) / m.elapsed.Seconds() / 1e6
	}
	cell.P50NS = m.hist.Quantile(0.50)
	cell.P95NS = m.hist.Quantile(0.95)
	cell.P99NS = m.hist.Quantile(0.99)
	cell.MeanNS = m.hist.Mean()
	cell.MaxNS = float64(m.hist.Max())
	if sink != nil {
		if path, werr := writeCellTrace(o.TraceDir, cell, sink); werr != nil {
			cell.Err = werr.Error()
		} else {
			cell.Trace = path
		}
	}
	return cell
}

// writeCellTrace exports one cell's capture as Chrome trace JSON. An empty
// capture (a backend that ignores Config.Trace) produces no file and no
// error; path is then "".
func writeCellTrace(dir string, cell Cell, sink *obs.TraceSink) (string, error) {
	evs := sink.Snapshot()
	if len(evs) == 0 {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%s-%d.json", cell.Backend, cell.Structure, cell.Goroutines))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := obs.WriteChrome(f, evs); err != nil {
		return "", err
	}
	return path, nil
}

// worker carries one goroutine's deterministic workload state.
type worker struct {
	keys   workload.KeyGen
	mix    *workload.Mix
	toggle bool
}

type metrics struct {
	ops     uint64
	elapsed time.Duration
	hist    stats.Histogram
}

// Measurement phases.
const (
	phaseWarmup = iota
	phaseMeasure
	phaseStop
)

// measure runs one cell: construct, prefill through the first handle,
// drive g workers through warmup and a fixed measurement window, then
// close. The generic handle type keeps one copy of the phase/timing/
// histogram machinery across all five structure kinds.
func measure[H any](o Options, g int, construct func(backend.Config) (*backend.Instance[H], error),
	cfg backend.Config, prefill func(H), drive func(H, *worker)) (metrics, error) {
	if construct == nil {
		return metrics{}, fmt.Errorf("structure not supported")
	}
	inst, err := construct(cfg)
	if err != nil {
		return metrics{}, err
	}
	if inst.Close != nil {
		defer inst.Close()
	}
	if prefill != nil {
		prefill(inst.NewHandle())
	}

	handles := make([]H, g)
	workers := make([]*worker, g)
	for i := 0; i < g; i++ {
		handles[i] = inst.NewHandle()
		seed := o.Seed + int64(i)*7919
		var keys workload.KeyGen
		if o.Dist == "zipf" {
			keys = workload.NewZipf(seed, o.ZipfSkew, o.KeySpace)
		} else {
			keys = workload.NewUniform(seed, o.KeySpace)
		}
		workers[i] = &worker{keys: keys, mix: workload.NewMix(seed, o.UpdateRatio)}
	}

	var phase atomic.Uint32
	var started atomic.Int32
	ops := make([]uint64, g)
	hists := make([]stats.Histogram, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, w := handles[i], workers[i]
			var n uint64
			sampleEvery := uint64(o.SampleEvery)
			for {
				p := phase.Load()
				if p == phaseStop {
					break
				}
				sample := p == phaseMeasure && n%sampleEvery == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				drive(h, w)
				if sample {
					hists[i].Record(uint64(time.Since(t0)))
				}
				if p == phaseMeasure {
					if n == 0 {
						started.Add(1)
					}
					n++
				}
				if o.DelayPauses > 0 {
					workload.DelayN(o.DelayPauses)
				}
			}
			ops[i] = n
		}(i)
	}

	elapsed, err := runWindow(&phase, &started, g, o.Warmup, o.Duration)
	wg.Wait()

	m := metrics{elapsed: elapsed}
	for i := 0; i < g; i++ {
		m.ops += ops[i]
		m.hist.Merge(&hists[i])
	}
	return m, err
}

// progressDeadline bounds how long a cell waits, past its window, for a
// worker that has yet to complete an operation.
const progressDeadline = 10 * time.Second

// runWindow times one cell: warm up, open the measurement window, and
// close it once it has elapsed and each of the g workers has counted a
// measured operation into started — on a busy host a millisecond window
// can pass before a worker goroutine is first scheduled, and wall time
// alone would then report a live backend as making no progress. It
// returns the window's real length, and an error when a worker is still
// at zero progressDeadline after the window.
func runWindow(phase *atomic.Uint32, started *atomic.Int32, g int, warmup, window time.Duration) (time.Duration, error) {
	time.Sleep(warmup)
	phase.Store(phaseMeasure)
	t0 := time.Now()
	time.Sleep(window)
	var err error
	for started.Load() < int32(g) {
		if time.Since(t0) > window+progressDeadline {
			err = fmt.Errorf("runtimebench: %d of %d workers completed no operation within %v of the window",
				g-int(started.Load()), g, progressDeadline)
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	phase.Store(phaseStop)
	return time.Since(t0), err
}

// Figures converts the report into one bench.Figure per structure:
// goroutines on x, Mops on y, one series per backend — the same shape
// the simulated experiments produce.
func (r Report) Figures() []bench.Figure {
	byStruct := map[string]map[string][]bench.Point{}
	var structOrder []string
	for _, c := range r.Cells {
		if c.Err != "" {
			continue
		}
		if byStruct[c.Structure] == nil {
			byStruct[c.Structure] = map[string][]bench.Point{}
			structOrder = append(structOrder, c.Structure)
		}
		byStruct[c.Structure][c.Backend] = append(byStruct[c.Structure][c.Backend],
			bench.Point{X: float64(c.Goroutines), Y: c.Mops})
	}
	var figs []bench.Figure
	for _, st := range structOrder {
		series := byStruct[st]
		labels := make([]string, 0, len(series))
		for l := range series {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		fig := bench.Figure{
			ID:     r.Layer + "-" + st,
			Title:  fmt.Sprintf("%s throughput by backend (%s layer, %s)", st, r.Layer, r.Machine),
			XLabel: "goroutines",
			YLabel: "Mops",
		}
		for _, l := range labels {
			pts := series[l]
			sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
			fig.Series = append(fig.Series, bench.Series{Label: l, Points: pts})
		}
		figs = append(figs, fig)
	}
	return figs
}

// JSON renders the report as indented JSON.
func (r Report) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
