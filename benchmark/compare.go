package main

import (
	"fmt"
	"io"
	"slices"
)

// This file is -compare: the per (metric, workload) verdict between two
// results.json files. It is the tool the run-to-run agreement criterion
// uses: two sets of runs of the same code must show no "worse".

type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// judge compares metric values a (before) and b (after) under spec's
// direction and bound. The window values are each side's runs:
//
//   - b is worse (better) when its median is beyond the bound in that
//     direction and the two interquartile ranges do not overlap, or when
//     every window of b is worse (better) than every window of a;
//   - a median beyond the bound whose quartile ranges overlap is
//     unresolved: the spread is too wide to say;
//   - within the bound, the verdict is same only if both spreads fit
//     inside the bound, unresolved otherwise.
func judge(spec *metricSpec, a, b metricOut) verdict {
	if a.Value == 0 {
		if b.Value == 0 {
			return same
		}
		return unresolved
	}
	// Work in "badness" space, where larger is worse whichever way the
	// metric points.
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	bad := func(m metricOut) []float64 {
		xs := m.Windows
		if len(xs) == 0 {
			xs = []float64{m.Value}
		}
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = sign * x
		}
		return out
	}
	wa, wb := bad(a), bad(b)
	delta := sign * (b.Value - a.Value) / a.Value
	aq1, aq3 := quartiles(wa)
	bq1, bq3 := quartiles(wb)
	spread := max(aq3-aq1, bq3-bq1) / a.Value
	disjoint := bq1 > aq3 || bq3 < aq1
	allWorse := slices.Min(wb) > slices.Max(wa)
	allBetter := slices.Max(wb) < slices.Min(wa)
	switch {
	case delta > spec.Bound:
		if disjoint || allWorse {
			return worse
		}
		return unresolved
	case delta < -spec.Bound:
		if disjoint || allBetter {
			return better
		}
		return unresolved
	case spread > spec.Bound:
		if allBetter && len(wa) > 1 && len(wb) > 1 {
			return better
		}
		return unresolved
	}
	return same
}

// runCompare prints the verdict table for the end-to-end metrics of
// every workload present in both files and returns the exit code: 1 if
// anything is worse, or if any operation failed on either side.
func runCompare(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	code := 0
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-24s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if wb == nil {
			fmt.Fprintf(w, "%-24s missing from %s\n", wl, pathB)
			code = 1
			continue
		}
		for _, d := range e2eDefs {
			ms := spec.endToEnd(d.name)
			ma, okA := wa.EndToEnd[d.name]
			mb, okB := wb.EndToEnd[d.name]
			if ms == nil || !okA || !okB {
				continue
			}
			v := judge(ms, ma, mb)
			counts[v]++
			change := 0.0
			if ma.Value != 0 {
				change = (mb.Value - ma.Value) / ma.Value
			}
			fmt.Fprintf(w, "%-24s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wl, d.name, ma.Value, mb.Value, change*100, ms.Bound*100, v)
			if v == worse {
				code = 1
			}
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-24s fail_ratio A=%g B=%g: operations failed\n", wl, wa.FailRatio, wb.FailRatio)
			code = 1
		}
	}
	fmt.Fprintf(w, "same=%d better=%d worse=%d unresolved=%d\n", counts[same], counts[better], counts[worse], counts[unresolved])
	return code
}
