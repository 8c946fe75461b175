// Command ffwdbench runs the benchmark grid at either measurement layer:
// the simulated machines of internal/simarch (the paper's tables and
// figures, plus the backend grid) or the real host via the runtime
// harness in internal/runtimebench.
//
// Usage:
//
//	ffwdbench -list
//	ffwdbench -exp fig9 -machine broadwell
//	ffwdbench -exp all
//	ffwdbench -exp fig14 -duration 2e6 -seed 7
//	ffwdbench -layer sim -exp grid -structures counter,set
//	ffwdbench -layer runtime -format json
//	ffwdbench -layer runtime -backends ffwd,rcl,lock-mcs -goroutines 1,2,4,8
//	ffwdbench -layer expiry -scenarios expiry-storm -goroutines 2,4
//	ffwdbench -layer expiry -capacity 4096 -format json
//
// The expiry layer sweeps the TTL/eviction scenarios (expiry storm,
// hot-key skew under eviction pressure, scan-heavy mix) against the
// delegated KV store under wheel-driven, server-owned expiry.
//
// Output is one aligned text table per experiment (the same rows/series
// the paper plots), CSV, an ASCII plot, or JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ffwd/internal/backend"
	"ffwd/internal/bench"
	"ffwd/internal/runtimebench"
	"ffwd/internal/simarch"
)

func main() {
	var (
		layer    = flag.String("layer", "sim", "measurement layer: sim (modelled machines), runtime (this host), or expiry (TTL/eviction scenarios on this host)")
		exp      = flag.String("exp", "", "experiment id (table1, fig1..fig18, grid, or 'all'); runtime layer always runs the grid")
		machine  = flag.String("machine", "broadwell", "machine model: broadwell, westmere, sandybridge, abudhabi")
		duration = flag.Float64("duration", 1e6, "simulated nanoseconds per configuration")
		seed     = flag.Uint64("seed", 1, "deterministic seed (simulation and workload streams)")
		list     = flag.Bool("list", false, "list experiments and exit")
		format   = flag.String("format", "table", "output format: table, csv, plot or json")

		// Grid options (runtime layer, and -exp grid on the sim layer).
		backends   = flag.String("backends", "", "comma-separated backend names (default: all registered)")
		structures = flag.String("structures", "counter,set,queue", "comma-separated structures: counter,set,queue,stack,kv")
		goroutines = flag.String("goroutines", "1,2,4", "comma-separated goroutine counts to sweep")
		measure    = flag.Duration("measure", 50*time.Millisecond, "runtime measurement window per cell")
		warmup     = flag.Duration("warmup", 0, "runtime warmup per cell (default measure/5)")
		keys       = flag.Uint64("keys", 1024, "key-space size for set/kv workloads")
		update     = flag.Float64("update", 0.3, "update ratio for set/kv workloads")
		dist       = flag.String("dist", "uniform", "key distribution: uniform or zipf")
		skew       = flag.Float64("skew", 1.2, "zipf skew when -dist zipf")
		delay      = flag.Int("delay", 0, "inter-operation delay in PAUSE iterations")
		traceDir   = flag.String("trace-dir", "", "runtime layer: capture per-cell delegation traces (Chrome JSON) into this directory")

		// Expiry-layer options.
		scenarios = flag.String("scenarios", "", "expiry layer: comma-separated scenarios (expiry-storm,hot-key-skew,scan-heavy; default all)")
		capacity  = flag.Int("capacity", 1024, "expiry layer: store max-entries bound")
		ttlTicks  = flag.Uint64("ttl-ticks", 20, "expiry layer: base TTL in 100µs clock ticks")
	)
	flag.Parse()

	if *list || (*exp == "" && *layer == "sim") {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Printf("  %-8s backend grid over the registry (%s)\n", "grid",
			strings.Join(backend.Names(), ", "))
		if *exp == "" && *layer == "sim" && !*list {
			fmt.Fprintln(os.Stderr, "\nselect one with -exp <id> (or -exp all), or -layer runtime")
			os.Exit(2)
		}
		return
	}

	gridOpts := runtimebench.Options{
		Backends:    splitList(*backends),
		Structures:  parseStructures(*structures),
		Goroutines:  parseInts(*goroutines),
		Duration:    *measure,
		Warmup:      *warmup,
		KeySpace:    *keys,
		UpdateRatio: *update,
		Dist:        *dist,
		ZipfSkew:    *skew,
		DelayPauses: *delay,
		Seed:        int64(*seed),
		TraceDir:    *traceDir,
	}

	// Validate the experiment id up front: an unknown id must name the
	// available experiments, not fail obscurely (or run nothing).
	if *layer == "sim" && *exp != "all" && *exp != "grid" {
		known := false
		for _, id := range bench.IDs() {
			known = known || id == *exp
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *exp)
			for _, e := range bench.Experiments() {
				fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
			}
			fmt.Fprintf(os.Stderr, "  %-8s backend grid over the registry\n", "grid")
			fmt.Fprintf(os.Stderr, "  %-8s every experiment above\n", "all")
			os.Exit(2)
		}
	}

	m, err := simarch.MachineByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch *layer {
	case "expiry":
		rep, err := runtimebench.RunExpiry(runtimebench.ExpiryOptions{
			Scenarios:  splitList(*scenarios),
			Goroutines: parseInts(*goroutines),
			Duration:   *measure,
			Warmup:     *warmup,
			Capacity:   *capacity,
			TTLTicks:   *ttlTicks,
			Seed:       int64(*seed),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emitReport(rep, *format)
	case "runtime":
		rep, err := runtimebench.Run(gridOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emitReport(rep, *format)
	case "sim":
		if *exp == "grid" {
			rep, err := runtimebench.SimGrid(gridOpts, m, *duration)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			emitReport(rep, *format)
			return
		}
		opts := bench.Options{Machine: m, DurationNS: *duration, Seed: *seed}
		ids := []string{*exp}
		if *exp == "all" {
			ids = bench.IDs()
		}
		for _, id := range ids {
			f, err := bench.Run(id, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			emitFigure(f, *format)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -layer %q (want sim, runtime or expiry)\n", *layer)
		os.Exit(2)
	}
}

// emitReport renders a grid report: JSON keeps the per-cell latency
// quantiles; the figure formats show the throughput series.
func emitReport(rep runtimebench.Report, format string) {
	if format == "json" {
		s, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(s)
		return
	}
	for _, f := range rep.Figures() {
		emitFigure(f, format)
	}
}

func emitFigure(f bench.Figure, format string) {
	switch format {
	case "csv":
		fmt.Print(bench.FormatCSV(f))
	case "plot":
		fmt.Println(bench.FormatPlot(f, 72, 20))
	case "json":
		fmt.Print(bench.FormatJSON(f))
	default:
		fmt.Println(bench.Format(f))
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseStructures(s string) []backend.Structure {
	var out []backend.Structure
	for _, p := range splitList(s) {
		st := backend.Structure(p)
		known := false
		for _, k := range backend.Structures {
			known = known || st == k
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown structure %q (want one of %v)\n", p, backend.Structures)
			os.Exit(2)
		}
		out = append(out, st)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad count %q\n", p)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
