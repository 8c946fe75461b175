// Command benchmark is the repository's one benchmark: six closed-loop
// workloads (two in-process against the library, four against spawned
// ffwdserve processes over loopback), five end-to-end metrics per
// workload, per-layer metrics measured from outside each module, and a
// traced run that reconciles the two. BENCHMARK.json at the repository
// root is its contract; README.md in this directory explains what each
// workload and metric is for.
//
// One workload, as the benchmark driver runs it:
//
//	go run ./benchmark --workload serve-binary-sat --seed 1 --seconds 10 --trace 0
//
// prints every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) by name with its unit, and ends with one JSON result line.
//
// The whole suite, end-to-end and traced runs of every workload:
//
//	go run ./benchmark -seed 1 -out DIR
//
// writes DIR/results.json and DIR/trace-<workload>.json, and
//
//	go run ./benchmark -compare A/results.json B/results.json
//
// gives a same/worse/better/unresolved verdict per (metric, workload)
// from the bounds in BENCHMARK.json, exiting nonzero on any "worse".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// setupReps is how many times an end-to-end run sets up before
// measuring; setup_s is the median. The replicated pair's set-up takes
// most of a second (4,096 quorum writes), so it gets fewer.
func setupReps(w *workload) int {
	if w.tgt == targetDurable {
		return 5
	}
	return 15
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the contract's JSON result line (default: the whole suite)")
		seed         = flag.Uint64("seed", 1, "seed of every connection's op stream")
		seconds      = flag.Float64("seconds", 0, "measured seconds per end-to-end run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = the traced run's per-layer metrics")
		outDir       = flag.String("out", "", "directory for results.json and trace-<workload>.json (default: .bench_build/out)")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("usage: benchmark -compare A.json B.json"))
		}
		return runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	scratch := filepath.Join(root, ".bench_build")
	if *outDir == "" {
		*outDir = filepath.Join(scratch, "out")
	}
	e := &env{root: root, scratch: scratch, log: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}}

	// Children die with the benchmark however it ends: normal return,
	// error, panic (deferred calls run while it unwinds), or a signal.
	defer killAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(130)
	}()

	rf := &resultsFile{Header: newHeader(root, *seed, *seconds), Workloads: map[string]*workloadOut{}}
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		return runOne(e, rf, w, *trace == 1, *outDir)
	}
	return runSuite(e, rf, *outDir)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func newHeader(root string, seed uint64, seconds float64) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown", Seed: seed, Seconds: seconds,
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// runEndToEnd is one untraced run of w: the end-to-end metrics.
func (e *env) runEndToEnd(w *workload, seed uint64, seconds float64) (*workloadOut, error) {
	res, err := e.runLeg(w, legOpts{
		seed:    seed,
		measure: secondsDur(seconds),
		setups:  setupReps(w),
		// The durable pair ends with kill -9 and a read-back of every key.
		// kill -9 keeps the page cache, so this catches an acknowledgement
		// sent before the write, not one sent before the fsync.
		crash:   w.tgt == targetDurable,
		restart: w.tgt == targetDurable,
	})
	if err != nil {
		return nil, err
	}
	out := &workloadOut{Commands: e.takeCommands()}
	out.count(res)
	out.EndToEnd = e2eMetrics(res)
	if res.rec.totalOps() == 0 {
		return out, fmt.Errorf("%s: no operation completed", w.name)
	}
	return out, nil
}

// runOne is the contract mode: one workload, one kind of run, one JSON
// result line last on standard output.
func runOne(e *env, rf *resultsFile, w *workload, traced bool, outDir string) int {
	var (
		out *workloadOut
		err error
	)
	if traced {
		out, err = e.runTraced(w, rf.Header.Seed, rf.Header.Seconds, outDir)
	} else {
		out, err = e.runEndToEnd(w, rf.Header.Seed, rf.Header.Seconds)
	}
	if err != nil {
		return fail(err)
	}
	rf.Header.BuildS = e.buildS
	printHeader(os.Stdout, &rf.Header)
	printWorkload(os.Stdout, w.name, out)
	metrics := out.EndToEnd
	if traced {
		metrics = out.PerLayer
	}
	line, err := contractLine(out, metrics)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if out.Failed > 0 {
		return fail(fmt.Errorf("%s: %d of %d operations failed (%d oracle violations, %d acknowledged writes lost)",
			w.name, out.Failed, out.Attempted, out.Violations, out.ReadBackLost))
	}
	return 0
}

// runSuite runs every workload end to end and traced, prints every
// metric, and writes results.json and the traces.
func runSuite(e *env, rf *resultsFile, outDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	printHeader(os.Stdout, &rf.Header)
	code := 0
	for i := range workloads {
		w := &workloads[i]
		out, err := e.runEndToEnd(w, rf.Header.Seed, rf.Header.Seconds)
		if err != nil {
			return fail(err)
		}
		tr, err := e.runTraced(w, rf.Header.Seed, rf.Header.Seconds, outDir)
		if err != nil {
			return fail(err)
		}
		out.PerLayer, out.Reconcile, out.ReconcileP50US, out.Depth = tr.PerLayer, tr.Reconcile, tr.ReconcileP50US, tr.Depth
		out.Commands = uniq(append(out.Commands, tr.Commands...))
		out.Attempted += tr.Attempted
		out.Failed += tr.Failed
		out.Violations += tr.Violations
		out.FailRatio = float64(out.Failed) / float64(out.Attempted)
		rf.Workloads[w.name] = out
		printWorkload(os.Stdout, w.name, out)
		if out.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", w.name, out.Failed, out.Attempted)
			code = 1
		}
	}
	rf.Header.BuildS = e.buildS
	path := filepath.Join(outDir, "results.json")
	if err := writeResults(path, rf); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", path)
	return code
}
