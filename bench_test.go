// Package ffwd's root benchmark harness: one testing.B benchmark per table
// and figure of the paper, regenerating the experiment's rows each
// iteration from the simulated Broadwell machine (select other machines
// with ffwdbench), plus native benchmarks that exercise the real runtime
// delegation stack against its lock baselines.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure's data:
//
//	go test -bench=BenchmarkFig9 -v
package ffwd

import (
	"fmt"
	"sync"
	"testing"

	"ffwd/internal/backend"
	_ "ffwd/internal/backend/all"
	"ffwd/internal/bench"
	"ffwd/internal/core"
	"ffwd/internal/locks"
	"ffwd/internal/simarch"
	"ffwd/internal/simsync"
	"ffwd/internal/workload"
)

// benchOpts keeps per-iteration cost bounded; ffwdbench uses the longer
// default horizon.
func benchOpts() bench.Options { return bench.Options{DurationNS: 3e5, Seed: 1} }

// runExperiment is the shared body of every figure benchmark: regenerate
// the figure b.N times and report one derived headline metric so regressions
// in the models are visible in benchstat output.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = bench.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the first series' last point as the headline metric
	// (metric units must be whitespace-free).
	if len(fig.Series) > 0 && len(fig.Series[0].Points) > 0 {
		s := fig.Series[0]
		b.ReportMetric(s.Points[len(s.Points)-1].Y, "headline_y")
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { runExperiment(b, "fig18") }

// --- Native (real concurrency) benchmarks -------------------------------
//
// These exercise the runtime-layer implementations: absolute numbers on a
// single-core host do not reproduce the paper's contention effects, but
// the same binaries on a multi-socket machine do.

// BenchmarkNativeFetchAdd is the fetch-and-add micro-benchmark (fig8/fig9
// family) on the real stack: ffwd delegation vs a mutex vs an MCS lock.
func BenchmarkNativeFetchAdd(b *testing.B) {
	b.Run("FFWD", func(b *testing.B) {
		srv := core.NewServer(core.Config{MaxClients: 64})
		var counter uint64
		inc := srv.Register(func(*[core.MaxArgs]uint64) uint64 {
			counter++
			return counter
		})
		if err := srv.Start(); err != nil {
			b.Fatal(err)
		}
		defer srv.Stop()
		b.RunParallel(func(pb *testing.PB) {
			c := srv.MustNewClient()
			for pb.Next() {
				c.Delegate(inc)
			}
		})
	})
	b.Run("MUTEX", func(b *testing.B) {
		var mu sync.Mutex
		var counter uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				counter++
				mu.Unlock()
			}
		})
	})
	b.Run("MCS", func(b *testing.B) {
		var l locks.MCS
		var counter uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.Lock()
				counter++
				l.Unlock()
			}
		})
	})
}

// BenchmarkNativeDelegationArity measures the real demarshalling cost per
// argument count (the paper's odel).
func BenchmarkNativeDelegationArity(b *testing.B) {
	srv := core.NewServer(core.Config{})
	sink := uint64(0)
	fid := srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		sink += a[0] + a[5]
		return sink
	})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	c := srv.MustNewClient()
	for argc := 0; argc <= core.MaxArgs; argc += 2 {
		args := make([]uint64, argc)
		b.Run(fmt.Sprintf("args=%d", argc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Delegate(fid, args...)
			}
		})
	}
}

// BenchmarkAblationSim runs the simulated design-choice ablations that
// DESIGN.md calls out (cmd/simexplore prints the same data interactively):
// each sub-benchmark's headline metric is the ablated configuration's
// throughput in Mops.
func BenchmarkAblationSim(b *testing.B) {
	m := simarch.Broadwell
	cs := simsync.EmptyLoop(m, 1)
	base := simsync.DelegSimConfig{
		Machine: m, Method: simsync.FFWD, Clients: 120, Servers: 1,
		DelayPauses: 25, CS: cs, DurationNS: 3e5, Seed: 1,
	}
	run := func(name string, mutate func(*simsync.DelegSimConfig)) {
		b.Run(name, func(b *testing.B) {
			var r simsync.Result
			for i := 0; i < b.N; i++ {
				cfg := base
				mutate(&cfg)
				r = simsync.SimulateDelegation(cfg)
			}
			b.ReportMetric(r.Mops, "Mops")
		})
	}
	run("baseline", func(*simsync.DelegSimConfig) {})
	run("write-through", func(c *simsync.DelegSimConfig) { c.WriteThrough = true })
	run("server-lock", func(c *simsync.DelegSimConfig) { c.ServerLockNS = 20 })
	run("private-responses", func(c *simsync.DelegSimConfig) { c.PrivateResponses = true })
	run("rcl-protocol", func(c *simsync.DelegSimConfig) { c.Method = simsync.RCL })
	run("numa-oblivious", func(c *simsync.DelegSimConfig) { c.RemoteRequestLines = true })
}

// BenchmarkAblationStoreBufferDepth sweeps the modelled store-buffer depth
// against a dependent-miss-store workload (the fig15 mechanism).
func BenchmarkAblationStoreBufferDepth(b *testing.B) {
	m := simarch.Broadwell
	for _, depth := range []int{1, 4, 16, 42} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var r simsync.Result
			for i := 0; i < b.N; i++ {
				mm := m
				mm.StoreBufferEntries = depth
				r = simsync.SimulateDelegation(simsync.DelegSimConfig{
					Machine: mm, Method: simsync.FFWD, Clients: 120, Servers: 1,
					DelayPauses: 25, DurationNS: 3e5, Seed: 1,
					CS: simsync.CS{BaseNS: 25, ServerMissStores: 2,
						MissStoreLatNS: m.RemoteLLCNS, MissStoreWindow: depth},
				})
			}
			b.ReportMetric(r.Mops, "Mops")
			b.ReportMetric(r.StallPct, "stall%")
		})
	}
}

// BenchmarkRuntimeGrid drives every registered backend through the shared
// registry — the same descriptors the runtimebench harness sweeps — so
// benchstat can compare synchronization schemes on identical op loops.
func BenchmarkRuntimeGrid(b *testing.B) {
	for _, bk := range backend.ByStructure(backend.StructCounter) {
		bk := bk
		b.Run("counter/"+bk.Name, func(b *testing.B) {
			inst, err := bk.Counter(backend.Config{Goroutines: 64})
			if err != nil {
				b.Fatal(err)
			}
			if inst.Close != nil {
				defer inst.Close()
			}
			var mu sync.Mutex // NewHandle is main-goroutine API; serialize it
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				h := inst.NewHandle()
				mu.Unlock()
				for pb.Next() {
					h.Add(1)
				}
			})
		})
	}
	for _, bk := range backend.ByStructure(backend.StructSet) {
		bk := bk
		b.Run("set/"+bk.Name, func(b *testing.B) {
			inst, err := bk.Set(backend.Config{Goroutines: 64, KeySpace: 1024})
			if err != nil {
				b.Fatal(err)
			}
			if inst.Close != nil {
				defer inst.Close()
			}
			var mu sync.Mutex
			var seed int64
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				h := inst.NewHandle()
				seed++
				keys := workload.NewUniform(seed, 1024)
				mix := workload.NewMix(seed, 0.3)
				mu.Unlock()
				for pb.Next() {
					k := keys.Next()
					switch mix.Next() {
					case workload.OpContains:
						h.Contains(k)
					case workload.OpInsert:
						h.Insert(k)
					default:
						h.Remove(k)
					}
				}
			})
		})
	}
}
