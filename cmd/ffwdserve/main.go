// Command ffwdserve is a memcached-like TCP key-value server whose store
// is served by a ffwd delegation server — the repository's end-to-end
// demonstration that a real network service can put its entire shared
// state behind delegation.
//
// The server speaks two protocols over TCP, selected with -proto:
//
// Text protocol (-proto text, one command per line):
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
// TTLs are relative (milliseconds of server time); the server computes
// the absolute deadline when the operation applies, so clients never
// need a synchronized clock. On the ffwd backend expiry is server-owned:
// the delegation server's background hook advances the store clock and
// drains the timer wheel between request sweeps — no client ever scans
// for dead entries. The mutex baseline has no owning goroutine, so its
// TTL commands advance the clock inline (the client-driven model the
// wheel replaces). -default-ttl applies an expiry to plain sets;
// -max-entries caps resident entries (scan-resistant eviction beyond it).
//
// Binary protocol (-proto binary): the length-prefixed frame format of
// internal/wireproto, served by the event-loop dataplane of
// internal/frontend — a fixed pool of epoll readers batch-decodes
// frames into per-shard queues, shard executors pipeline each batch
// through the delegation server, and responses are flushed with one
// write per connection per batch. Requests carry IDs and may complete
// out of order, so a pipelining client is never head-of-line-blocked by
// a slow operation on another shard. -proto both serves text on -addr
// and binary on -binary-addr.
//
// Keys and values are unsigned 64-bit integers (value 2^64-1 is reserved).
// Malformed input never kills a connection silently: unknown commands,
// bad numbers, over-limit mget lines, and lines longer than the 4 KiB
// bound all get an ERROR reply and the connection stays usable. (The
// binary protocol is stricter: a malformed frame loses the framing, so
// it draws a typed error response and a close.)
//
// Both frontends share one protection model under overload and abuse:
//
//   - -max-conns caps concurrent connections; beyond it, new arrivals get
//     "BUSY max connections" (text) or a BUSY frame (binary) and are
//     closed immediately.
//   - -read-timeout bounds how long a connection may sit idle between
//     commands (slowloris/forgotten-client protection).
//   - -write-timeout bounds response flushes so a non-reading peer cannot
//     wedge a serving goroutine.
//   - Saturation sheds instead of queueing without bound: the text path
//     waits up to -shed-timeout for a pooled executor, the binary path
//     answers BUSY when a shard queue is full.
//   - -stats-addr exposes the serving counters, the delegation server's
//     stats, and the binary frontend's queue/batch gauges at /metrics
//     and /debug/vars.
//
// The delegation server uses the adaptive idle policy: at zero load it
// parks instead of spinning, so an idle ffwdserve burns no core; the first
// request after an idle period wakes it. Tune with -idle-park-after.
//
// The ffwd backend runs under a core.Supervisor, which restarts the
// delegation server if it ever crashes; the exactly-once ledger makes
// those restarts invisible to clients (no request is applied twice).
// SIGINT/SIGTERM shut down gracefully: accepting stops, in-flight
// connections drain (bounded by -drain-timeout), and the delegation
// server's final stats are logged. -chaos-seed injects a deterministic
// fault mix (see internal/fault) for resilience testing against a live
// server.
//
// -replicas N (N > 1) upgrades the ffwd backend to a raft-style replica
// group (internal/replica): every write is quorum-acknowledged before
// STORED goes back on the wire, and a leader crash promotes a follower
// instead of replaying a restarted server — acknowledged writes survive
// losing the whole leader. A connection's pipelined burst of writes
// commits as one unit — one WAL write, one wire frame per follower, one
// quorum wait — on either protocol. The text `stats` verb then reports
// the group's term, commit index, and failover counters; /metrics grows
// ffwd_replica_* gauges; and the shutdown report separates replicated
// writes from leader-local reads. With -chaos-seed, replicated mode
// injects the replication fault mix (leader kills, partition bursts,
// slow followers) instead of the single-server mix.
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
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// defaultShards picks the binary frontend's shard count: one executor
// per two cores, bounded so shard queues stay busy enough to batch. On
// a single-core host one shard is right — the win comes from pipelined
// delegation and write combining, not parallel executors.
func defaultShards() int {
	n := runtime.NumCPU() / 2
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		proto     = flag.String("proto", "text", "serving protocol: text, binary, or both (text on -addr, binary on -binary-addr)")
		binAddr   = flag.String("binary-addr", "127.0.0.1:11212", "binary frontend listen address for -proto both")
		shards    = flag.Int("shards", 0, "binary frontend shard executors (0 = one per two cores)")
		queueLen  = flag.Int("frontend-queue", 0, "binary frontend per-shard queue depth (0 = default 1024)")
		batchMax  = flag.Int("frontend-batch", 0, "max ops per executor batch, either frontend (0 = default 64)")
		capacity  = flag.Int("capacity", 1<<16, "store capacity (entries)")
		maxEnts   = flag.Int("max-entries", 0, "cap on resident entries before scan-resistant eviction kicks in (0 = -capacity); overrides -capacity when set")
		defTTLDur = flag.Duration("default-ttl", 0, "expiry applied to plain set commands, rounded to ms ticks (0 = never expire)")
		kind      = flag.String("backend", "ffwd", "ffwd or mutex")
		clients   = flag.Int("clients", 64, "pooled executors (and their delegation clients) behind the text frontend")
		replicas  = flag.Int("replicas", 1, "replica group size for the ffwd backend; >1 quorum-replicates writes with failover")
		pipeDepth = flag.Int("pipeline", 8, "pipelined requests in flight per mget (ffwd backend)")
		parkAfter = flag.Int("idle-park-after", 0, "empty sweeps before the idle server parks (0 = default, negative = never park)")
		chaosSeed = flag.Uint64("chaos-seed", 0, "inject a seed-derived fault mix into the delegation server (0 = off; ffwd backend)")
		drainWait = flag.Duration("drain-timeout", 2*time.Second, "grace period for in-flight connections on SIGINT/SIGTERM")
		maxConns  = flag.Int("max-conns", 256, "max concurrent connections per frontend; beyond it new arrivals are rejected BUSY (0 = unlimited)")
		readWait  = flag.Duration("read-timeout", 2*time.Minute, "idle bound between commands before a connection is dropped (0 = none)")
		writeWait = flag.Duration("write-timeout", 10*time.Second, "bound on flushing one response (0 = none)")
		shedWait  = flag.Duration("shed-timeout", 100*time.Millisecond, "how long a text command batch waits for a pooled executor before BUSY (0 = forever)")
		statsAddr = flag.String("stats-addr", "", "expose serving stats over HTTP at this address: /metrics (Prometheus), /debug/vars (expvar), /debug/pprof, /debug/delegation-trace (empty = off)")
		tracePath = flag.String("trace", "", "capture the delegation lifecycle trace and write it as Chrome trace JSON here on shutdown (ffwd backend)")
		dataDir   = flag.String("data-dir", "", "durable replication: WAL + snapshot directory; selects pinned-leader mode with -peers (or a follower store with -replica-member)")
		fsyncPol  = flag.String("fsync", "always", "WAL sync policy with -data-dir: always, batch, or none")
		peersCSV  = flag.String("peers", "", "comma-separated follower transport addresses (host:port) for durable pinned-leader mode")
		snapEvery = flag.Uint64("snapshot-every", 0, "applied-entry cadence of replica snapshots (0 = when the live log outweighs the last snapshot, never before 64 entries; replicated modes and -replica-member)")
		memberAt  = flag.String("replica-member", "", "run as a durable replication follower listening on this address (requires -data-dir); serves no client protocol")
	)
	flag.Parse()
	if *maxEnts > 0 {
		*capacity = *maxEnts
	}
	// Server time: one tick = 1ms since process start. The ffwd backend
	// samples this from its background hook; the mutex baseline samples
	// it inline on TTL-bearing commands.
	startAt := time.Now()
	tick := func() uint64 { return uint64(time.Since(startAt) / time.Millisecond) }
	defTTL := uint64(*defTTLDur / time.Millisecond)
	if *defTTLDur > 0 && defTTL == 0 {
		defTTL = 1 // sub-millisecond -default-ttl still expires
	}

	if *memberAt != "" {
		runReplicaMember(*memberAt, *dataDir, *fsyncPol, *capacity, *snapEvery)
		return
	}

	needText := *proto == "text" || *proto == "both"
	needBin := *proto == "binary" || *proto == "both"
	if !needText && !needBin {
		log.Fatalf("unknown -proto %q (want text, binary, or both)", *proto)
	}
	replicated := *replicas > 1 || *dataDir != ""
	if *shards <= 0 {
		*shards = defaultShards()
	}
	// A frontend that is not served needs no executors.
	if !needText {
		*clients = 0
	}
	if !needBin {
		*shards = 0
	}

	var (
		pool  *execPool       // the text frontend's executors
		execs []frontend.Exec // the binary frontend's, one per shard
		d     *apps.DelegatedKV
		rkv   *apps.ReplicatedKV
		rcnt  *repCounters
		sv    *core.Supervisor
		sink  *obs.TraceSink
		// storeStats samples the store's hit/miss/eviction/expiry counters
		// for /metrics and /debug/vars. On the ffwd backend it goes through
		// a dedicated delegation client (scrapes are requests like any
		// other); on mutex it reads under the lock.
		storeStats func() (h, m, e, exp uint64)
	)
	switch {
	case *kind == "ffwd" && replicated:
		cfg := core.Config{MaxClients: *clients + *shards, IdleParkAfter: *parkAfter}
		rcfg := apps.ReplicatedConfig{
			Replicas:      *replicas,
			SnapshotEvery: *snapEvery,
			// The supervisor cadence mirrors the unreplicated path:
			// crash repair within ~5ms, near-zero idle cost.
			Supervisor: core.SupervisorConfig{Interval: 5 * time.Millisecond, KickAfter: 20},
			// Durable pinned-leader mode: -data-dir selects it, -peers
			// names the follower processes, -fsync the WAL policy.
			DataDir: *dataDir,
			Fsync:   *fsyncPol,
		}
		if *peersCSV != "" {
			rcfg.Peers = strings.Split(*peersCSV, ",")
		}
		if *chaosSeed != 0 {
			inj := fault.ReplicaFromSeed(*chaosSeed)
			cfg.Hooks = inj
			rcfg.Hooks = inj
			log.Printf("ffwdserve: replica chaos injection on: %v", inj)
		}
		if *tracePath != "" || *statsAddr != "" {
			sink = obs.NewTraceSink(obs.SinkConfig{Clients: cfg.MaxClients})
			cfg.Trace = sink
		}
		rcfg.Core = cfg
		var err error
		if rkv, err = apps.NewReplicatedKV(*capacity, rcfg); err != nil {
			log.Fatal(err)
		}
		if err := rkv.Start(); err != nil {
			log.Fatal(err)
		}
		if *dataDir != "" {
			ws := rkv.Store().Stats()
			log.Printf("ffwdserve: durable pinned leader: dir=%s fsync=%s peers=%v term=%d torn=%d/%dB",
				*dataDir, *fsyncPol, rcfg.Peers, rkv.Group().Stats().Term, ws.TornRecords, ws.TornBytes)
		}
		rcnt = &repCounters{}
		pool = newExecPool(newRepExecs(rkv, *clients, rcnt))
		execs = newRepExecs(rkv, *shards, rcnt)
	case *kind == "ffwd":
		if *pipeDepth < 1 {
			*pipeDepth = 1
		}
		// Slot budget: every executor owns its singles window (one slot
		// behind the text frontend, see binaryfront.go) + 1 synchronous
		// slot + pipeDepth pipelined slots.
		slots := ffwdExecSlots(*clients, 1, *pipeDepth) + ffwdExecSlots(*shards, ffwdExecWindow, *pipeDepth)
		if *statsAddr != "" {
			slots++ // the metrics scrape client
		}
		cfg := core.Config{
			MaxClients:    slots,
			IdleParkAfter: *parkAfter,
		}
		if *chaosSeed != 0 {
			inj := fault.FromSeed(*chaosSeed)
			cfg.Hooks = inj
			log.Printf("ffwdserve: chaos injection on: %v", inj)
		}
		if *tracePath != "" || *statsAddr != "" {
			// The sink also backs /debug/delegation-trace, so a stats
			// endpoint alone turns capture on; recording costs one branch
			// plus a ring store per lifecycle event.
			sink = obs.NewTraceSink(obs.SinkConfig{Clients: cfg.MaxClients})
			cfg.Trace = sink
			if *tracePath != "" {
				log.Printf("ffwdserve: tracing delegation lifecycle to %s (written on shutdown)", *tracePath)
			}
		}
		d = apps.NewDelegatedKVConfig(*capacity, cfg)
		// Server-owned time: the delegation server's background hook
		// samples this source, advances the store clock, and drains due
		// expiries between request sweeps.
		d.SetTickSource(tick)
		if err := d.Start(); err != nil {
			log.Fatal(err)
		}
		te, err := newFFWDExecs(d, *clients, 1, *pipeDepth, defTTL)
		if err != nil {
			log.Fatal(err)
		}
		pool = newExecPool(te)
		if execs, err = newFFWDExecs(d, *shards, ffwdExecWindow, *pipeDepth, defTTL); err != nil {
			log.Fatal(err)
		}
		if *statsAddr != "" {
			mc, err := d.NewClient()
			if err != nil {
				log.Fatal(err)
			}
			var mu sync.Mutex
			storeStats = func() (uint64, uint64, uint64, uint64) {
				mu.Lock()
				defer mu.Unlock()
				return mc.Stats()
			}
		}
		// Supervise the delegation server: restart it if it crashes
		// (mandatory under chaos injection, cheap insurance without).
		// The cadence is gentler than the library default: a rescue
		// kick wakes the parked server and costs a full idle-ladder
		// climb, so one per 100ms keeps an idle ffwdserve near zero
		// CPU while still repairing a crash within 5ms and a lost
		// wake within 100ms.
		sv = core.NewSupervisor(d.Server(), core.SupervisorConfig{
			Interval:  5 * time.Millisecond,
			KickAfter: 20,
		})
		sv.Start()
	case *kind == "mutex":
		lkv := apps.NewLockedKV(*capacity, func() sync.Locker { return &sync.Mutex{} })
		pool = newExecPool(newMutexExecs(lkv, *clients, tick, defTTL))
		execs = newMutexExecs(lkv, *shards, tick, defTTL)
		storeStats = lkv.Stats
	default:
		log.Fatalf("unknown backend %q", *kind)
	}
	pool.shedAfter = *shedWait

	var fe *textFrontend
	if needText {
		fe = newTextFrontend(pool)
		if *batchMax > 0 {
			fe.maxBatch = *batchMax
		}
		fe.maxConns = *maxConns
		fe.readTimeout = *readWait
		fe.writeTimeout = *writeWait
		if rkv != nil {
			fe.statsReply = func() string { return repStatsLine(rkv.Group()) }
		}
	}

	var bsrv *frontend.Server
	if needBin {
		var err error
		bsrv, err = frontend.NewServer(frontend.Config{
			Execs:        execs,
			QueueDepth:   *queueLen,
			MaxBatch:     *batchMax,
			MaxConns:     *maxConns,
			IdleTimeout:  *readWait,
			WriteTimeout: *writeWait,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	if *statsAddr != "" {
		expvar.Publish("ffwdserve", expvar.Func(func() any {
			m := map[string]uint64{}
			if fe != nil {
				m["accepted"] = fe.stats.accepted.Load()
				m["rejected"] = fe.stats.rejected.Load()
				m["active"] = uint64(fe.stats.active.Load())
				m["read_timeouts"] = fe.stats.readTimeouts.Load()
				m["long_lines"] = fe.stats.longLines.Load()
			}
			m["busy_sheds"] = pool.sheds.Load()
			if bsrv != nil {
				bm := bsrv.Metrics()
				m["bin_accepted"] = bm.Accepted.Load()
				m["bin_rejected"] = bm.Rejected.Load()
				m["bin_active"] = uint64(bm.Active.Load())
				m["bin_frames"] = bm.FramesIn.Load()
				m["bin_queue_sheds"] = bm.QueueSheds.Load()
				m["bin_batches"] = bm.Batches.Load()
				m["bin_flushes"] = bm.Flushes.Load()
			}
			if d != nil {
				st := d.Server().Stats()
				m["requests"] = st.Requests
				m["sweeps"] = st.Sweeps
				m["panics"] = st.Panics
				m["crashes"] = st.ServerCrashes
				m["restarts"] = st.Restarts
				m["ledger_skips"] = st.LedgerSkips
				m["retry_waits"] = st.RetryWaits
				m["maintain_runs"] = st.BackgroundRuns
				m["maintain_units"] = st.BackgroundUnits
			}
			if storeStats != nil {
				h, mi, ev, exp := storeStats()
				m["store_hits"] = h
				m["store_misses"] = mi
				m["store_evictions"] = ev
				m["store_expired"] = exp
			}
			if rkv != nil {
				m["local_ops"] = rcnt.localOps.Load()
				m["replicated_ops"] = rcnt.repOps.Load()
				gs := rkv.Group().Stats()
				m["replica_term"] = gs.Term
				m["replica_commit_index"] = gs.CommitIndex
				m["replicas_alive"] = uint64(gs.AliveReplicas)
				m["replica_failovers"] = gs.Failovers
				m["replica_ledger_hits"] = gs.LedgerHits
				m["replica_apply_dups"] = gs.ApplyDups
				m["replica_append_drops"] = gs.AppendDrops
				m["replica_snapshots"] = gs.Snapshots
				m["replica_log_truncated"] = gs.EntriesTruncated
			}
			return m
		}))
		// An explicit mux rather than http.DefaultServeMux: everything
		// the endpoint serves is listed here.
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", metricsRegistry(fe, pool, d, rkv, rcnt, bsrv, storeStats).Handler())
		if sink != nil {
			// Live capture download: the snapshot is race-free against
			// the serving hot path, so this works on a loaded server.
			mux.HandleFunc("/debug/delegation-trace", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if err := obs.WriteChrome(w, sink.Snapshot()); err != nil {
					log.Printf("ffwdserve: trace endpoint: %v", err)
				}
			})
		}
		go func() {
			log.Printf("ffwdserve: stats endpoint on http://%s (/metrics, /debug/vars, /debug/pprof, /debug/delegation-trace)", *statsAddr)
			log.Print(http.ListenAndServe(*statsAddr, mux))
		}()
	}

	var tln, bln net.Listener
	if fe != nil {
		var err error
		tln, err = net.Listen("tcp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ffwdserve: %s backend listening on %s", *kind, tln.Addr())
	}
	if bsrv != nil {
		listenAt := *binAddr
		if *proto == "binary" {
			listenAt = *addr
		}
		var err error
		bln, err = net.Listen("tcp", listenAt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ffwdserve: binary frontend listening on %s (%d shards)", bln.Addr(), bsrv.Shards())
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, give in-flight
	// connections a grace period to drain, then force-close stragglers
	// and print the delegation server's final stats.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("ffwdserve: %v: stopped accepting, draining connections (up to %v)", sig, *drainWait)
		if tln != nil {
			tln.Close()
		}
		if bln != nil {
			bln.Close()
		}
	}()

	if fe != nil {
		if bsrv != nil {
			go bsrv.Serve(bln)
		}
		fe.acceptLoop(tln)
	} else {
		bsrv.Serve(bln)
	}

	if fe != nil {
		if n := fe.drain(*drainWait); n > 0 {
			log.Printf("ffwdserve: drain timeout: force-closed %d connection(s)", n)
		}
	}
	if bsrv != nil {
		if n := bsrv.Drain(*drainWait); n > 0 {
			log.Printf("ffwdserve: binary drain timeout: force-closed %d connection(s)", n)
		}
		bm := bsrv.Metrics()
		log.Printf("ffwdserve: binary stats: accepted=%d rejected=%d frames=%d batches=%d flushes=%d queue-sheds=%d decode-errors=%d idle-reaps=%d",
			bm.Accepted.Load(), bm.Rejected.Load(), bm.FramesIn.Load(),
			bm.Batches.Load(), bm.Flushes.Load(), bm.QueueSheds.Load(),
			bm.DecodeErrors.Load(), bm.IdleReaps.Load())
	}

	if sv != nil {
		sv.Stop()
	}
	if fe != nil {
		log.Printf("ffwdserve: conn stats: accepted=%d rejected=%d read-timeouts=%d long-lines=%d busy-sheds=%d",
			fe.stats.accepted.Load(), fe.stats.rejected.Load(),
			fe.stats.readTimeouts.Load(), fe.stats.longLines.Load(), pool.sheds.Load())
	}
	if rkv != nil {
		// The drain report keeps replicated writes separate from
		// leader-local reads: an in-flight replicated op at this point
		// was force-closed mid-commit and may still have landed on the
		// group, which is exactly what the replicated ledger disambiguates
		// for a retrying client.
		log.Printf("ffwdserve: op stats: local=%d replicated=%d (in-flight %d)",
			rcnt.localOps.Load(), rcnt.repOps.Load(), rcnt.repInFlight.Load())
		gs := rkv.Group().Stats()
		log.Printf("ffwdserve: replica stats: term=%d leader=%d alive=%d/%d commit-index=%d commits=%d ledger-hits=%d apply-dups=%d no-quorum=%d snapshots=%d installs=%d truncated=%d failovers=%d restarts=%d",
			gs.Term, gs.LeaderID, gs.AliveReplicas, gs.Replicas, gs.CommitIndex,
			gs.Commits, gs.LedgerHits, gs.ApplyDups, gs.NoQuorum,
			gs.Snapshots, gs.SnapshotInstalls, gs.EntriesTruncated, gs.Failovers, gs.Restarts)
		if st := rkv.Store(); st != nil {
			// Group commit's receipts: records per write(2), entries per
			// wire frame (heartbeats count as frames).
			ws, frames := st.Stats(), uint64(0)
			for _, p := range rkv.Peers() {
				frames += p.Stats().Frames
			}
			log.Printf("ffwdserve: durable stats: wal-appends=%d wal-writes=%d wal-syncs=%d wal-snapshots=%d peer-frames=%d log-len=%d",
				ws.Appends, ws.Writes, ws.Syncs, ws.Snapshots, frames, gs.LogLast-gs.LogBase)
		}
		if srv := rkv.Server(); srv != nil {
			st := srv.Stats()
			log.Printf("ffwdserve: leader server stats: requests=%d sweeps=%d batches=%d panics=%d crashes=%d ledger-skips=%d",
				st.Requests, st.Sweeps, st.Batches, st.Panics, st.ServerCrashes, st.LedgerSkips)
		}
		rkv.Stop()
	}
	if d != nil {
		st := d.Server().Stats()
		log.Printf("ffwdserve: final stats: requests=%d sweeps=%d batches=%d panics=%d crashes=%d restarts=%d kicks=%d heartbeat-misses=%d abandoned-slots=%d ledger-skips=%d retry-waits=%d",
			st.Requests, st.Sweeps, st.Batches, st.Panics, st.ServerCrashes,
			st.Restarts, st.Kicks, st.HeartbeatMisses, st.AbandonedSlots,
			st.LedgerSkips, st.RetryWaits)
		if st.LastPanic != nil {
			log.Printf("ffwdserve: last panic: %v", st.LastPanic)
		}
		d.Stop()
	}
	if sink != nil && *tracePath != "" {
		writeTrace(*tracePath, sink)
	}
	log.Print("ffwdserve: shutdown complete")
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

// metricsRegistry bridges the serving counters and the delegation
// server's stats into a Prometheus /metrics endpoint. Everything is a
// scrape-time sampling func: the counters already exist as atomics and
// core.Stats is a consistent snapshot, so the registry owns no state.
func metricsRegistry(fe *textFrontend, pool *execPool, d *apps.DelegatedKV, rkv *apps.ReplicatedKV, rcnt *repCounters, bsrv *frontend.Server, storeStats func() (h, m, e, exp uint64)) *obs.Registry {
	reg := obs.NewRegistry()
	u := func(load func() uint64) func() float64 {
		return func() float64 { return float64(load()) }
	}
	if fe != nil {
		reg.CounterFunc("ffwdserve_connections_accepted_total",
			"Connections accepted off the listener.", u(fe.stats.accepted.Load))
		reg.CounterFunc("ffwdserve_connections_rejected_total",
			"Connections rejected at admission (over -max-conns).", u(fe.stats.rejected.Load))
		reg.GaugeFunc("ffwdserve_connections_active",
			"Connections currently being served.",
			func() float64 { return float64(fe.stats.active.Load()) })
		reg.CounterFunc("ffwdserve_read_timeouts_total",
			"Connections dropped by the idle read deadline.", u(fe.stats.readTimeouts.Load))
		reg.CounterFunc("ffwdserve_long_lines_total",
			"Over-limit command lines rejected.", u(fe.stats.longLines.Load))
	}
	if bsrv != nil {
		bsrv.RegisterMetrics(reg)
	}
	reg.CounterFunc("ffwdserve_busy_sheds_total",
		"Text command batches shed BUSY waiting for a pooled executor.", u(pool.sheds.Load))
	if d != nil {
		srv := d.Server()
		stat := func(field func(core.Stats) uint64) func() float64 {
			return func() float64 { return float64(field(srv.Stats())) }
		}
		reg.CounterFunc("ffwd_requests_total",
			"Delegated requests executed.", stat(func(s core.Stats) uint64 { return s.Requests }))
		reg.CounterFunc("ffwd_sweeps_total",
			"Server slot sweeps.", stat(func(s core.Stats) uint64 { return s.Sweeps }))
		reg.CounterFunc("ffwd_panics_total",
			"Panics recovered inside delegated operations.", stat(func(s core.Stats) uint64 { return s.Panics }))
		reg.CounterFunc("ffwd_crashes_total",
			"Delegation server crashes.", stat(func(s core.Stats) uint64 { return s.ServerCrashes }))
		reg.CounterFunc("ffwd_restarts_total",
			"Delegation server restarts.", stat(func(s core.Stats) uint64 { return s.Restarts }))
		reg.CounterFunc("ffwd_ledger_skips_total",
			"Duplicate requests skipped by the exactly-once ledger.", stat(func(s core.Stats) uint64 { return s.LedgerSkips }))
		reg.CounterFunc("ffwd_retry_waits_total",
			"Client waits that spanned a server restart.", stat(func(s core.Stats) uint64 { return s.RetryWaits }))
		reg.CounterFunc("ffwd_maintain_runs_total",
			"Background maintenance runs between request sweeps (clock advance + wheel drain).",
			stat(func(s core.Stats) uint64 { return s.BackgroundRuns }))
		reg.CounterFunc("ffwd_maintain_units_total",
			"Maintenance work units (expiries fired + wheel cascades) done in the background hook.",
			stat(func(s core.Stats) uint64 { return s.BackgroundUnits }))
	}
	if storeStats != nil {
		reg.CounterFunc("ffwd_expiry_expired_total",
			"Entries reclaimed because their TTL deadline passed.",
			func() float64 { _, _, _, exp := storeStats(); return float64(exp) })
		reg.CounterFunc("ffwd_evict_evictions_total",
			"Entries evicted at capacity by the scan-resistant policy.",
			func() float64 { _, _, ev, _ := storeStats(); return float64(ev) })
	}
	if rkv != nil {
		g := rkv.Group()
		gstat := func(field func(replica.Stats) float64) func() float64 {
			return func() float64 { return field(g.Stats()) }
		}
		reg.GaugeFunc("ffwd_replica_term",
			"Current replication term (elections so far + 1).",
			gstat(func(s replica.Stats) float64 { return float64(s.Term) }))
		reg.GaugeFunc("ffwd_replica_commit_index",
			"Highest quorum-committed log index.",
			gstat(func(s replica.Stats) float64 { return float64(s.CommitIndex) }))
		reg.GaugeFunc("ffwd_replicas_alive",
			"Group members currently alive.",
			gstat(func(s replica.Stats) float64 { return float64(s.AliveReplicas) }))
		reg.CounterFunc("ffwd_replica_failovers_total",
			"Successful leader promotions after crashes.",
			gstat(func(s replica.Stats) float64 { return float64(s.Failovers) }))
		reg.CounterFunc("ffwd_replica_ledger_hits_total",
			"Write retries answered from the replicated ledger without re-execution.",
			gstat(func(s replica.Stats) float64 { return float64(s.LedgerHits) }))
		reg.CounterFunc("ffwd_replica_snapshot_installs_total",
			"Snapshot transfers into lagging or revived members.",
			gstat(func(s replica.Stats) float64 { return float64(s.SnapshotInstalls) }))
		reg.CounterFunc("ffwd_replica_log_truncated_total",
			"Log entries dropped by snapshot-backed prefix truncation.",
			gstat(func(s replica.Stats) float64 { return float64(s.EntriesTruncated) }))
		reg.CounterFunc("ffwd_replica_apply_dups_total",
			"Duplicate log entries fenced at apply time by the replicated ledger.",
			gstat(func(s replica.Stats) float64 { return float64(s.ApplyDups) }))
		reg.CounterFunc("ffwd_replica_append_drops_total",
			"Leader-to-follower appends dropped by partition injection.",
			gstat(func(s replica.Stats) float64 { return float64(s.AppendDrops) }))
		reg.CounterFunc("ffwd_replica_snapshots_total",
			"Snapshots taken across all group members.",
			gstat(func(s replica.Stats) float64 { return float64(s.Snapshots) }))
		if st := rkv.Store(); st != nil {
			wstat := func(field func(replog.Stats) uint64) func() float64 {
				return func() float64 { return float64(field(st.Stats())) }
			}
			reg.CounterFunc("ffwd_wal_appends_total",
				"Entry records appended to the durable WAL.",
				wstat(func(s replog.Stats) uint64 { return s.Appends }))
			reg.CounterFunc("ffwd_wal_writes_total",
				"write(2) calls that carried those records (one per committed batch).",
				wstat(func(s replog.Stats) uint64 { return s.Writes }))
			reg.CounterFunc("ffwd_wal_syncs_total",
				"fsyncs issued for WAL record durability.",
				wstat(func(s replog.Stats) uint64 { return s.Syncs }))
			reg.CounterFunc("ffwd_wal_torn_records_total",
				"Torn tail records truncated away during recovery.",
				wstat(func(s replog.Stats) uint64 { return s.TornRecords }))
			reg.CounterFunc("ffwd_wal_compactions_total",
				"Snapshot-driven WAL prefix truncations.",
				wstat(func(s replog.Stats) uint64 { return s.Compactions }))
		}
		// The leader's delegation server changes identity across
		// failovers, so its request counter is sampled through the
		// group-aware accessor (0 while the shard is down).
		reg.CounterFunc("ffwd_requests_total",
			"Delegated requests executed by the current leader generation.",
			func() float64 {
				if srv := rkv.Server(); srv != nil {
					return float64(srv.Stats().Requests)
				}
				return 0
			})
	}
	if rcnt != nil {
		reg.CounterFunc("ffwdserve_local_ops_total",
			"Completed leader-local read commands (get/mget/len).", u(rcnt.localOps.Load))
		reg.CounterFunc("ffwdserve_replicated_ops_total",
			"Completed replicated write commands (set/del).", u(rcnt.repOps.Load))
		reg.GaugeFunc("ffwdserve_replicated_ops_in_flight",
			"Replicated write commands currently executing.",
			func() float64 { return float64(rcnt.repInFlight.Load()) })
	}
	return reg
}
