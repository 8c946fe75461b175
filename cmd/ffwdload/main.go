// Command ffwdload is an open-loop, coordinated-omission-safe load
// generator for ffwdserve. It drives either protocol — the binary
// dataplane (-proto binary) or the newline text protocol (-proto text)
// — with a fixed-rate schedule: requests are issued on their scheduled
// instants (next = next + interval), never skipped, and every latency
// is measured from the *scheduled* send time. A server that stalls
// therefore inflates the recorded tail instead of quietly receiving
// less load, which is what a closed-loop "send, wait, send" client gets
// wrong.
//
// With -rate 0 the generator runs a closed loop bounded only by
// -outstanding, which measures peak throughput rather than latency
// under a fixed offered load.
//
// The workload is a uniform key-space GET/SET mix (-get percent GETs,
// -keys keys), deterministic per connection, so two phases against two
// frontends issue statistically identical traffic. -ttl-set and -touch
// carve TTL SETs (setx) and TOUCHes out of the non-GET budget, each
// carrying the -ttl-ms relative TTL — the deterministic TTL mix for
// exercising server-owned expiry under load.
//
// The report is one line: ops/s, the p50, p99 and p99.9 latencies in µs,
// and the op, error and send-stall counts.
//
// ffwdload exits nonzero when the run completes zero operations or
// records no latencies — a smoke run that "passes" without measuring
// anything is a failure.
//
// Usage:
//
//	ffwdserve -proto binary -addr :11212 &
//	ffwdload -addr :11212 -rate 20000 -duration 10s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:11212", "target address (binary frontend by default)")
		proto       = flag.String("proto", "binary", "protocol to speak: binary or text")
		conns       = flag.Int("conns", 4, "concurrent connections")
		rate        = flag.Float64("rate", 0, "total offered ops/s across connections (0 = closed loop at -outstanding depth)")
		duration    = flag.Duration("duration", 10*time.Second, "measurement phase length, warmup included")
		warmup      = flag.Duration("warmup", 1*time.Second, "initial slice excluded from the recorded window")
		getPct      = flag.Int("get", 90, "percent of ops that are GETs (rest are SETs)")
		ttlSetPct   = flag.Int("ttl-set", 0, "percent of ops that are TTL SETs (setx), taken from the SET budget")
		touchPct    = flag.Int("touch", 0, "percent of ops that are TOUCHes, taken from the SET budget")
		ttlMS       = flag.Uint64("ttl-ms", 60000, "relative TTL carried by setx/touch ops, in server ticks (ms)")
		keys        = flag.Uint64("keys", 4096, "uniform key-space size")
		outstanding = flag.Int("outstanding", 64, "per-connection in-flight cap")
		crc         = flag.Bool("crc", false, "request CRC-framed responses (binary protocol)")
	)
	flag.Parse()
	log.SetFlags(0)

	if *getPct < 0 || *getPct > 100 {
		log.Fatal("ffwdload: -get must be 0..100")
	}
	if *ttlSetPct < 0 || *touchPct < 0 || *getPct+*ttlSetPct+*touchPct > 100 {
		log.Fatal("ffwdload: -get + -ttl-set + -touch must not exceed 100")
	}
	if *keys == 0 {
		log.Fatal("ffwdload: -keys must be positive")
	}
	if *warmup >= *duration {
		log.Fatal("ffwdload: -warmup must be shorter than -duration")
	}
	cfg := loadConfig{
		addr:        *addr,
		proto:       *proto,
		conns:       *conns,
		rate:        *rate,
		duration:    *duration,
		warmup:      *warmup,
		getPct:      *getPct,
		ttlSetPct:   *ttlSetPct,
		touchPct:    *touchPct,
		ttl:         *ttlMS,
		keys:        *keys,
		outstanding: *outstanding,
		crc:         *crc,
	}

	log.Printf("ffwdload: %s: %s addr=%s conns=%d duration=%v",
		cfg.proto, describeRate(cfg.rate), cfg.addr, cfg.conns, cfg.duration)
	res, err := runLoad(cfg)
	if err != nil {
		log.Fatalf("ffwdload: %v", err)
	}

	// Validation: a run that measured nothing must not look like a pass.
	exitCode := 0
	if res.Ops == 0 {
		log.Print("ffwdload: FAIL: completed zero operations")
		exitCode = 1
	} else if res.Hist.Count() == 0 {
		log.Print("ffwdload: FAIL: recorded no latencies (p99 unattributed)")
		exitCode = 1
	}

	fmt.Printf("%-8s %12.0f ops/s  p50=%8.1fµs  p99=%8.1fµs  p99.9=%8.1fµs  ops=%d errors=%d stalls=%d\n",
		cfg.proto, res.OpsPerSec, res.quantileUS(0.50), res.quantileUS(0.99),
		res.quantileUS(0.999), res.Ops, res.Errors, res.Stalls)
	os.Exit(exitCode)
}

func describeRate(r float64) string {
	if r <= 0 {
		return "closed-loop"
	}
	return fmt.Sprintf("%.0f ops/s", r)
}
