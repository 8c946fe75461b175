//go:build amd64

package obs

// cputicks returns the processor timestamp counter (RDTSC). On every
// x86-64 part this code targets the TSC is invariant — it ticks at a
// constant rate regardless of frequency scaling and is synchronized
// across the cores of a socket — so differences between two readings
// measure elapsed time in a fixed unit.
//
// Reading the TSC costs roughly half of what the vDSO monotonic clock
// costs (the vDSO itself reads the TSC and then scales it; we defer that
// scaling to snapshot time, off the hot path). RDTSC alone is not
// ordered against earlier loads: a core spinning on a line another core
// is about to write predicts the exit branch and reads the counter while
// the load is still missing, so the stamp lands a cache-miss latency
// (~100 ns) before the value it was meant to follow — enough to put a
// client's completion before the server's respond, or an execute before
// its issue. The LFENCE ahead of it makes the read wait for every
// earlier load, so "stamped after observing X" holds across cores.
//
// Implemented in clock_amd64.s.
func cputicks() int64

// tscClock records which clock Event timestamps are taken on, for
// diagnostics.
const tscClock = true
