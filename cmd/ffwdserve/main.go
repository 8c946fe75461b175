// Command ffwdserve is a memcached-like TCP key-value server whose store
// is served by a ffwd delegation server — the repository's end-to-end
// demonstration that a real network service can put its entire shared
// state behind delegation. README.md documents the flags, the overload
// model and the replicated modes; DESIGN.md the architecture.
//
// Text protocol (-proto text, one command per line; keys and values are
// unsigned 64-bit integers, value 2^64-1 is reserved; TTLs are relative
// milliseconds of server time):
//
//	set <key> <value>         → STORED
//	setx <key> <value> <ttl>  → STORED            (expires ttl ms after apply)
//	touch <key> <ttl>         → TOUCHED | NOT_FOUND (refresh expiry; 0 clears)
//	get <key>                 → VALUE <v> | NOT_FOUND
//	mget <k1> <k2> ...        → VALUES <v|-> <v|-> ...   (pipelined multi-get)
//	del <key>                 → DELETED | NOT_FOUND
//	len                       → LEN <n>
//	stats                     → STATS hits=<h> misses=<m> evictions=<e> expired=<x>
//	quit                      → closes the connection
//
// Malformed input draws an ERROR reply and the connection stays usable.
//
// Binary protocol (-proto binary): the length-prefixed frames of
// internal/wireproto; requests carry IDs, which the replies echo in
// request order. Either protocol is a codec on one internal/frontend
// server (a reader goroutine per connection running its batches on a
// borrowed executor, one flush per batch); -proto both runs two, text on
// -addr and binary on -binary-addr, each with its own executor pool.
//
// Usage:
//
//	ffwdserve -addr :11211 -capacity 65536 -backend ffwd
//	ffwdserve -proto binary              # binary dataplane on -addr
//	ffwdserve -proto both                # text on -addr, binary on -binary-addr
//	ffwdserve -backend mutex             # global-lock baseline, for comparison
//	ffwdserve -chaos-seed 7              # fault-injected resilience run
//	ffwdserve -replicas 3                # replicated shard with failover
//	ffwdserve -max-conns 128 -read-timeout 30s -stats-addr :8080
package main

import (
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		proto     = flag.String("proto", "text", "serving protocol: text, binary, or both (text on -addr, binary on -binary-addr)")
		binAddr   = flag.String("binary-addr", "127.0.0.1:11212", "binary frontend listen address for -proto both")
		batchMax  = flag.Int("frontend-batch", 0, "max ops per executor batch (0 = default 64)")
		capacity  = flag.Int("capacity", 1<<16, "store capacity: resident entries before scan-resistant eviction kicks in")
		defTTLDur = flag.Duration("default-ttl", 0, "expiry applied to plain set commands, rounded to ms ticks (0 = never expire)")
		kind      = flag.String("backend", "ffwd", "ffwd or mutex")
		clients   = flag.Int("clients", 0, "pooled executors (one delegation slot each) each served protocol's connections borrow from (0 = GOMAXPROCS, or 64 for the replicated backend)")
		replicas  = flag.Int("replicas", 1, "replica group size for the ffwd backend; >1 quorum-replicates writes with failover")
		parkAfter = flag.Int("idle-park-after", 0, "empty sweeps before the idle server parks (0 = default, negative = never park)")
		chaosSeed = flag.Uint64("chaos-seed", 0, "inject a seed-derived fault mix into the delegation server (0 = off; ffwd backend)")
		drainWait = flag.Duration("drain-timeout", 2*time.Second, "grace period for in-flight connections on SIGINT/SIGTERM")
		maxConns  = flag.Int("max-conns", 256, "max concurrent connections per protocol; beyond it new arrivals are rejected BUSY (0 = unlimited)")
		readWait  = flag.Duration("read-timeout", 2*time.Minute, "a connection silent this long is dropped, within twice it (0 = never)")
		writeWait = flag.Duration("write-timeout", 10*time.Second, "bound on flushing one response (0 = none)")
		shedWait  = flag.Duration("shed-timeout", 100*time.Millisecond, "how long a batch waits for a pooled executor before BUSY (0 = forever)")
		statsAddr = flag.String("stats-addr", "", "expose serving stats over HTTP at this address: /metrics (Prometheus), /debug/vars (expvar), /debug/pprof, /debug/delegation-trace (empty = off)")
		tracePath = flag.String("trace", "", "capture the delegation lifecycle trace and write it as Chrome trace JSON here on shutdown (ffwd backend)")
		dataDir   = flag.String("data-dir", "", "durable replication: WAL + snapshot directory; selects pinned-leader mode with -peers (or a follower store with -replica-member)")
		fsyncPol  = flag.String("fsync", "always", "WAL sync policy with -data-dir: always, batch, or none")
		peersCSV  = flag.String("peers", "", "comma-separated follower transport addresses (host:port) for durable pinned-leader mode")
		snapEvery = flag.Uint64("snapshot-every", 0, "applied-entry cadence of replica snapshots (0 = when the live log outweighs the last snapshot, never before 64 entries; replicated modes and -replica-member)")
		memberAt  = flag.String("replica-member", "", "run as a durable replication follower listening on this address (requires -data-dir); serves no client protocol")
	)
	flag.Parse()
	if *memberAt != "" {
		runReplicaMember(*memberAt, *dataDir, *fsyncPol, *capacity, *snapEvery)
		return
	}
	needText := *proto == "text" || *proto == "both"
	needBin := *proto == "binary" || *proto == "both"
	if !needText && !needBin {
		log.Fatalf("unknown -proto %q (want text, binary, or both)", *proto)
	}

	// The store and its executors. Server time is one tick per
	// millisecond since process start: the ffwd backend samples it from
	// its background hook, the mutex baseline inline on its commands. A
	// served protocol gets a pool of its own. The trace sink also
	// backs /debug/delegation-trace, so a stats endpoint alone turns
	// capture on; recording costs one branch plus a ring store per
	// lifecycle event.
	startAt := time.Now()
	o := storeOpts{
		capacity:  *capacity,
		defTTL:    uint64(*defTTLDur / time.Millisecond),
		tick:      func() uint64 { return uint64(time.Since(startAt) / time.Millisecond) },
		parkAfter: *parkAfter,
		chaosSeed: *chaosSeed,
		trace:     *tracePath != "" || *statsAddr != "",
	}
	if *defTTLDur > 0 && o.defTTL == 0 {
		o.defTTL = 1 // sub-millisecond -default-ttl still expires
	}
	if o.pools = 1; needText && needBin {
		o.pools = 2
	}
	replicated := *kind == "ffwd" && (*replicas > 1 || *dataDir != "")
	if o.execs = *clients; o.execs <= 0 {
		o.execs = defaultExecs(replicated)
	}
	reg := obs.NewRegistry()
	var be *backend
	var err error
	switch {
	case replicated:
		// -data-dir selects durable pinned-leader mode, -peers names the
		// follower processes, -fsync the WAL policy.
		rcfg := apps.ReplicatedConfig{Replicas: *replicas, SnapshotEvery: *snapEvery, DataDir: *dataDir, Fsync: *fsyncPol}
		if *peersCSV != "" {
			rcfg.Peers = strings.Split(*peersCSV, ",")
		}
		be, err = newReplicatedBackend(o, rcfg, reg)
	case *kind == "ffwd":
		be, err = newFFWDBackend(o, reg)
	case *kind == "mutex":
		be = newMutexBackend(o, reg)
	default:
		log.Fatalf("unknown backend %q", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}

	// One frontend.Server per served protocol — same lifecycle, its own
	// codec and executor pool — each listening before it is announced.
	type front struct {
		srv *frontend.Server
		ln  net.Listener
	}
	var fronts []front
	serve := func(at, group string, codec frontend.Codec) front {
		srv, err := frontend.NewServer(frontend.Config{
			Codec:        codec,
			Execs:        be.pools[len(fronts)],
			ShedTimeout:  *shedWait,
			MaxBatch:     *batchMax,
			MaxConns:     *maxConns,
			IdleTimeout:  *readWait,
			WriteTimeout: *writeWait,
		})
		if err != nil {
			log.Fatal(err)
		}
		reg.Add(group, srv.StatRows)
		ln, err := net.Listen("tcp", at)
		if err != nil {
			log.Fatal(err)
		}
		fronts = append(fronts, front{srv, ln})
		return fronts[len(fronts)-1]
	}
	if needText {
		f := serve(*addr, "text stats", frontend.Text{Stats: be.groupStats})
		log.Printf("ffwdserve: %s backend listening on %s", *kind, f.ln.Addr())
	}
	if needBin {
		at := *addr
		if needText {
			at = *binAddr
		}
		f := serve(at, "binary stats", frontend.Binary{})
		log.Printf("ffwdserve: binary frontend listening on %s (%d executors)", f.ln.Addr(), o.execs)
	}
	if *statsAddr != "" {
		go statsEndpoint(*statsAddr, reg, be.sink)
	}

	// Serve until SIGINT/SIGTERM stops the accepting, then give in-flight
	// connections a grace period to drain and force-close the stragglers.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("ffwdserve: %v: stopped accepting, draining connections (up to %v)", sig, *drainWait)
		for _, f := range fronts {
			f.ln.Close()
		}
	}()
	var accepting sync.WaitGroup
	for _, f := range fronts {
		accepting.Add(1)
		go func() {
			defer accepting.Done()
			f.srv.Serve(f.ln)
		}()
	}
	accepting.Wait()
	for _, f := range fronts {
		if n := f.srv.Drain(*drainWait); n > 0 {
			log.Printf("ffwdserve: drain timeout: force-closed %d connection(s)", n)
		}
	}

	// Report: every registered row, one line per group.
	for _, line := range reg.Sample().Report() {
		log.Printf("ffwdserve: %s", line)
	}
	be.stop()
	if be.sink != nil && *tracePath != "" {
		writeTrace(*tracePath, be.sink)
	}
	log.Print("ffwdserve: shutdown complete")
}

// statsEndpoint serves -stats-addr: the registry as Prometheus text and
// as the "ffwdserve" expvar map, pprof, and — when a trace is being
// captured — a live download of it.
func statsEndpoint(addr string, reg *obs.Registry, sink *obs.TraceSink) {
	expvar.Publish("ffwdserve", expvar.Func(reg.Vars))
	// An explicit mux rather than http.DefaultServeMux: everything the
	// endpoint serves is listed here.
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if sink != nil {
		// The snapshot is race-free against the serving hot path, so this
		// works on a loaded server.
		mux.HandleFunc("/debug/delegation-trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := obs.WriteChrome(w, sink.Snapshot()); err != nil {
				log.Printf("ffwdserve: trace endpoint: %v", err)
			}
		})
	}
	log.Printf("ffwdserve: stats endpoint on http://%s (/metrics, /debug/vars, /debug/pprof, /debug/delegation-trace)", addr)
	log.Print(http.ListenAndServe(addr, mux))
}

// writeTrace dumps the captured delegation trace as Chrome trace JSON and
// logs the per-operation phase breakdown so a shutdown doubles as a quick
// latency report.
func writeTrace(path string, sink *obs.TraceSink) {
	evs := sink.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		log.Printf("ffwdserve: trace: %v", err)
		return
	}
	err = obs.WriteChrome(f, evs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Printf("ffwdserve: trace: %v", err)
		return
	}
	log.Printf("ffwdserve: wrote %d trace events to %s (%d dropped)", len(evs), path, sink.Drops())
	if bd := obs.Attribute(evs); bd.Ops > 0 {
		log.Printf("ffwdserve: phase breakdown over %d ops:\n%s", bd.Ops, bd.Table())
	}
}
