package main

import (
	"math"
	"slices"
	"time"
)

// procStart is the benchmark's time base: every timestamp it records is
// monotonic nanoseconds since this instant.
var procStart = time.Now()

func nowNS() int64 { return int64(time.Since(procStart)) }

// nWindows is how many equal windows the measured interval is cut into.
// Every timing metric is the median of the per-window values, which is
// what made figures repeat on the two-core sizing host: one descheduled
// window moves a mean, not a median.
const nWindows = 10

// tailBeyond is the number of samples that must lie beyond a reported
// percentile (choosing-metrics §1).
const tailBeyond = 10

// window accumulates one slice of the measured interval.
type window struct {
	ops    uint64   // completions checked correct
	failed uint64   // refused, errored or oracle-rejected completions
	lat    []uint32 // sampled issue→reply latencies, ns
}

// recorder assigns completions to windows by completion time. One
// recorder belongs to one generator goroutine; recorders are merged
// after the run.
type recorder struct {
	start  int64 // ns since procStart; completions before it are warm-up
	winDur int64
	wins   [nWindows]window
}

func newRecorder(start time.Time, measure time.Duration, latCap int) *recorder {
	r := &recorder{start: int64(start.Sub(procStart)), winDur: int64(measure) / nWindows}
	for i := range r.wins {
		r.wins[i].lat = make([]uint32, 0, latCap)
	}
	return r
}

// end is the first instant past the measured interval.
func (r *recorder) end() int64 { return r.start + r.winDur*nWindows }

// at returns the window a completion at time t falls in, nil during
// warm-up and after the last window.
func (r *recorder) at(t int64) *window {
	if t < r.start {
		return nil
	}
	i := (t - r.start) / r.winDur
	if i >= nWindows {
		return nil
	}
	return &r.wins[i]
}

func (w *window) addLat(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	w.lat = append(w.lat, uint32(ns))
}

func (r *recorder) totalOps() (n uint64) {
	for i := range r.wins {
		n += r.wins[i].ops
	}
	return n
}

// merge folds other's windows into r (same start and window length).
func (r *recorder) merge(other *recorder) {
	for i := range r.wins {
		r.wins[i].ops += other.wins[i].ops
		r.wins[i].failed += other.wins[i].failed
		r.wins[i].lat = append(r.wins[i].lat, other.wins[i].lat...)
	}
}

// percentile returns the q-quantile of sorted by nearest rank. ok is
// false when fewer than tailBeyond samples lie beyond it: such a
// percentile is one bad sample wide and is not reported.
func percentile(sorted []uint32, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < tailBeyond {
		return float64(sorted[i]), false
	}
	return float64(sorted[i]), true
}

// windowPercentiles returns the per-window q-quantiles in µs. Windows
// too short to support the percentile are merged pairwise (10 → 5 → 2 →
// 1) until each holds enough samples, so a slow workload reports the
// same statistic over fewer, longer windows instead of an unsupported
// tail. ok is false when even the whole run cannot support it.
func windowPercentiles(r *recorder, q float64) (us []float64, samples int, ok bool) {
	groups := make([][]uint32, nWindows)
	for i := range r.wins {
		groups[i] = slices.Clone(r.wins[i].lat)
		samples += len(groups[i])
	}
	for {
		us = us[:0]
		ok = true
		for _, g := range groups {
			slices.Sort(g)
			v, supported := percentile(g, q)
			ok = ok && supported
			us = append(us, v/1e3)
		}
		if ok || len(groups) == 1 {
			return us, samples, ok
		}
		merged := make([][]uint32, 0, (len(groups)+1)/2)
		for i := 0; i+1 < len(groups); i += 2 {
			merged = append(merged, append(groups[i], groups[i+1]...))
		}
		if len(groups)%2 == 1 {
			last := len(merged) - 1
			merged[last] = append(merged[last], groups[len(groups)-1]...)
		}
		groups = merged
	}
}

// median returns the middle of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), which
// is what the benchmark contract's spread check uses. With fewer than
// two values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
