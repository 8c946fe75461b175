package runtimebench

import (
	"fmt"
	"sync/atomic"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/stats"
	"ffwd/internal/workload"
)

// Expiry scenario names. Each is a fixed operation mix against the
// delegated KV store with TTLs in play:
//
//   - expiry-storm: half the ops are short-TTL writes, half are reads,
//     over a key space that fits in the store — churn comes purely from
//     entries dying, not from eviction.
//   - hot-key-skew: zipf-distributed keys over a key space 4× the
//     store's capacity, 70/30 read/write — eviction pressure with a hot
//     set the segmented LRU should protect.
//   - scan-heavy: 90% reads sweeping sequentially through a key space 8×
//     capacity (a cache-busting scan), 10% short-TTL writes to a small
//     hot set — the scenario scan-resistant eviction exists for.
const (
	ScenarioExpiryStorm = "expiry-storm"
	ScenarioHotKeySkew  = "hot-key-skew"
	ScenarioScanHeavy   = "scan-heavy"
)

// ModeWheel names who drives reclamation, in each cell's Backend column:
// server-owned time — the delegation server samples a tick source and
// drains the timer wheel in bounded slices between sweeps; clients never
// see maintenance.
const ModeWheel = "wheel"

// ExpiryOptions configure an expiry/eviction scenario sweep.
type ExpiryOptions struct {
	// Scenarios to run; nil means all three.
	Scenarios []string
	// Goroutines lists worker counts; nil means {2, 4}.
	Goroutines []int
	// Duration is the per-cell measurement window (default 50ms);
	// Warmup precedes it (default Duration/5, min 1ms).
	Duration time.Duration
	Warmup   time.Duration
	// Capacity is the store's max-entries bound (default 1024).
	Capacity int
	// TTLTicks is the base TTL for scenario writes, in clock ticks of
	// 100µs (default 20 — a 2ms lifetime, several generations per
	// window).
	TTLTicks uint64
	// Seed derives the per-worker deterministic streams.
	Seed int64
	// SampleEvery records every Nth op's latency (default 8).
	SampleEvery int
}

func (o ExpiryOptions) withDefaults() ExpiryOptions {
	if len(o.Scenarios) == 0 {
		o.Scenarios = []string{ScenarioExpiryStorm, ScenarioHotKeySkew, ScenarioScanHeavy}
	}
	if len(o.Goroutines) == 0 {
		o.Goroutines = []int{2, 4}
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
	if o.Capacity <= 0 {
		o.Capacity = 1024
	}
	if o.TTLTicks == 0 {
		o.TTLTicks = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SampleEvery < 1 {
		o.SampleEvery = 8
	}
	return o
}

// RunExpiry sweeps scenario × goroutines and returns one cell each, in
// the same Report shape as the registry sweep: Backend carries ModeWheel,
// Structure the scenario.
func RunExpiry(o ExpiryOptions) (Report, error) {
	o = o.withDefaults()
	rep := Report{Layer: "runtime", Machine: "host"}
	for _, sc := range o.Scenarios {
		switch sc {
		case ScenarioExpiryStorm, ScenarioHotKeySkew, ScenarioScanHeavy:
		default:
			return Report{}, fmt.Errorf("runtimebench: unknown expiry scenario %q", sc)
		}
		for _, g := range o.Goroutines {
			rep.Cells = append(rep.Cells, runExpiryCell(o, sc, g))
		}
	}
	return rep, nil
}

// expiryWorker carries one goroutine's deterministic scenario state.
type expiryWorker struct {
	keys    workload.KeyGen
	hot     workload.KeyGen
	mix     *workload.Mix
	scanKey uint64
	span    uint64
}

// nextOp returns (kind, key) for the scenario. Kind reuses workload.Op:
// OpContains = Get, OpInsert = SetTTL write, OpRemove = Touch.
func (w *expiryWorker) nextOp(sc string) (workload.Op, uint64) {
	op := w.mix.Next()
	switch sc {
	case ScenarioScanHeavy:
		if op == workload.OpContains {
			// Sequential cache-busting scan.
			w.scanKey++
			return op, 1 + w.scanKey%w.span
		}
		// Writes and touches stay on the hot set.
		return op, w.hot.Next()
	default:
		return op, w.keys.Next()
	}
}

func runExpiryCell(o ExpiryOptions, sc string, g int) Cell {
	cell := Cell{Backend: ModeWheel, Structure: sc, Goroutines: g}

	d := apps.NewDelegatedKV(o.Capacity, g)
	start := time.Now()
	d.SetTickSource(func() uint64 { return uint64(time.Since(start) / (100 * time.Microsecond)) })
	if err := d.Start(); err != nil {
		cell.Err = err.Error()
		return cell
	}
	defer d.Stop()

	keySpace := uint64(o.Capacity) / 2 // expiry-storm: fits, churn is expiry
	dist := "uniform"
	ttl := o.TTLTicks
	switch sc {
	case ScenarioHotKeySkew:
		keySpace = 4 * uint64(o.Capacity) // eviction pressure
		dist = "zipf"
		ttl = 4 * o.TTLTicks
	case ScenarioScanHeavy:
		keySpace = 8 * uint64(o.Capacity) // cache-busting scan span
	}
	updateRatio := map[string]float64{
		ScenarioExpiryStorm: 0.5,
		ScenarioHotKeySkew:  0.3,
		ScenarioScanHeavy:   0.1,
	}[sc]

	clients := make([]*apps.KVClient, g)
	workers := make([]*expiryWorker, g)
	for i := 0; i < g; i++ {
		c, err := d.NewClient()
		if err != nil {
			cell.Err = err.Error()
			return cell
		}
		clients[i] = c
		seed := o.Seed + int64(i)*7919
		var keys workload.KeyGen
		if dist == "zipf" {
			keys = workload.NewZipf(seed, 1.2, keySpace)
		} else {
			keys = workload.NewUniform(seed, keySpace)
		}
		hotSpan := uint64(o.Capacity) / 8
		if hotSpan == 0 {
			hotSpan = 1
		}
		workers[i] = &expiryWorker{
			keys: keys,
			hot:  workload.NewUniform(seed^0x9e37, hotSpan),
			mix:  workload.NewMix(seed, updateRatio),
			span: keySpace,
		}
	}

	m, err := measureExpiry(o, sc, g, clients, workers, ttl)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Ops = m.ops
	cell.GetOps = m.gets
	if m.elapsed > 0 {
		cell.Mops = float64(m.ops) / m.elapsed.Seconds() / 1e6
		cell.GetMops = float64(m.gets) / m.elapsed.Seconds() / 1e6
	}
	cell.P50NS = m.hist.Quantile(0.50)
	cell.P95NS = m.hist.Quantile(0.95)
	cell.P99NS = m.hist.Quantile(0.99)
	cell.MeanNS = m.hist.Mean()
	cell.MaxNS = float64(m.hist.Max())
	return cell
}

type expiryMetrics struct {
	ops     uint64
	gets    uint64
	elapsed time.Duration
	hist    stats.Histogram
}

// measureExpiry drives g workers through warmup and a fixed window. Get
// latencies are the sampled series — the scenario's acceptance metric is
// read throughput while reclamation happens elsewhere, on the server.
func measureExpiry(o ExpiryOptions, sc string, g int,
	clients []*apps.KVClient, workers []*expiryWorker, ttl uint64) (expiryMetrics, error) {
	var phase atomic.Uint32
	var started atomic.Int32
	ops := make([]uint64, g)
	gets := make([]uint64, g)
	hists := make([]stats.Histogram, g)
	done := make(chan struct{})
	for i := 0; i < g; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			c, w := clients[i], workers[i]
			var n, ng uint64
			sampleEvery := uint64(o.SampleEvery)
			for {
				p := phase.Load()
				if p == phaseStop {
					break
				}
				op, k := w.nextOp(sc)
				sample := p == phaseMeasure && op == workload.OpContains && ng%sampleEvery == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				switch op {
				case workload.OpContains:
					c.Get(k)
				case workload.OpInsert:
					c.SetTTLNow(k, k, ttl)
				default:
					c.Touch(k, ttl)
				}
				if sample {
					hists[i].Record(uint64(time.Since(t0)))
				}
				if p == phaseMeasure {
					n++
					if op == workload.OpContains {
						if ng == 0 {
							started.Add(1) // a worker has started once it has read
						}
						ng++
					}
				}
			}
			ops[i], gets[i] = n, ng
		}(i)
	}

	elapsed, err := runWindow(&phase, &started, g, o.Warmup, o.Duration)
	for i := 0; i < g; i++ {
		<-done
	}

	m := expiryMetrics{elapsed: elapsed}
	for i := 0; i < g; i++ {
		m.ops += ops[i]
		m.gets += gets[i]
		m.hist.Merge(&hists[i])
	}
	return m, err
}
