package main

import (
	"bufio"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ffwd/internal/apps"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/wireproto"
)

// The Prometheus metrics the commit before the registry exported
// (-proto both -stats-addr, scraped from the running binary), as
// "name type" lines: every one must still be exported with its type,
// save the queue_depth and queue_capacity gauges, which went with the
// binary frontend's shard queues.
const (
	parentFrontends = `
ffwd_frontend_accepted_total counter
ffwd_frontend_active_conns gauge
ffwd_frontend_batch_ops_total counter
ffwd_frontend_batch_p50 gauge
ffwd_frontend_batch_p99 gauge
ffwd_frontend_batches_total counter
ffwd_frontend_bytes_in_total counter
ffwd_frontend_bytes_out_total counter
ffwd_frontend_decode_errors_total counter
ffwd_frontend_flushes_total counter
ffwd_frontend_frames_in_total counter
ffwd_frontend_idle_reaps_total counter
ffwd_frontend_queue_sheds_total counter
ffwd_frontend_rejected_total counter
ffwd_text_queue_sheds_total counter
ffwd_text_accepted_total counter
ffwd_text_active_conns gauge
ffwd_text_rejected_total counter
ffwd_text_decode_errors_total counter
ffwd_text_idle_reaps_total counter`
	parentStore = `
ffwd_evict_evictions_total counter
ffwd_expiry_expired_total counter`
	parentRequests = `
ffwd_requests_total counter`
	parentCore = `
ffwd_crashes_total counter
ffwd_ledger_skips_total counter
ffwd_maintain_runs_total counter
ffwd_maintain_units_total counter
ffwd_panics_total counter
ffwd_restarts_total counter
ffwd_retry_waits_total counter
ffwd_sweeps_total counter`
	parentReplicated = `
ffwd_replica_append_drops_total counter
ffwd_replica_apply_dups_total counter
ffwd_replica_commit_index gauge
ffwd_replica_failovers_total counter
ffwd_replica_ledger_hits_total counter
ffwd_replica_log_truncated_total counter
ffwd_replica_snapshot_installs_total counter
ffwd_replica_snapshots_total counter
ffwd_replica_term gauge
ffwd_replicas_alive gauge
ffwdserve_local_ops_total counter
ffwdserve_replicated_ops_in_flight gauge
ffwdserve_replicated_ops_total counter`
)

// What the registry added: rows that used to reach only the shutdown
// report or /debug/vars now reach every sink. (The replicated leader's
// delegation server, of which only ffwd_requests_total was exported,
// also gains the rest of the core rows; the text server, which had six
// rows of its own, declares the binary one's fourteen under its prefix.)
const (
	addedText = `
ffwd_text_batch_ops_total counter
ffwd_text_batch_p50 gauge
ffwd_text_batch_p99 gauge
ffwd_text_batches_total counter
ffwd_text_bytes_in_total counter
ffwd_text_bytes_out_total counter
ffwd_text_flushes_total counter
ffwd_text_frames_in_total counter`
	addedStore = `
ffwd_store_hits_total counter
ffwd_store_misses_total counter`
	addedCore = `
ffwd_abandoned_slots_total counter
ffwd_batches_total counter
ffwd_heartbeat_misses_total counter
ffwd_idle_parks_total counter
ffwd_kicks_total counter
ffwd_wakes_total counter`
	addedReplicated = `
ffwd_replica_commits_total counter
ffwd_replica_leader gauge
ffwd_replica_log_len gauge
ffwd_replica_no_quorum_total counter
ffwd_replica_restarts_total counter
ffwd_replicas gauge`
)

// benchmarkStatsLine is the pattern benchmark/serve.go reads the
// delegation server's final counters with.
var benchmarkStatsLine = regexp.MustCompile(`(?:final stats|leader server stats): requests=([0-9]+) sweeps=([0-9]+) batches=([0-9]+)`)

// TestStatsSinksAgree builds, for each backend kind, the registry main
// builds, drives a few ops through both protocols, renders one sample
// through all three sinks, and requires them to agree row for row, the
// Prometheus name/type set to be the parent commit's plus the declared
// additions, and the report to carry the line the benchmark parses.
func TestStatsSinksAgree(t *testing.T) {
	o := storeOpts{capacity: 1024, execs: 2, pools: 2, tick: func() uint64 { return 0 }}
	for _, tc := range []struct {
		name          string
		build         func(*obs.Registry) (*backend, error)
		parent, added string // the Prometheus name/type set, in two parts
		// benchLine says the report must carry the benchmark's stats line.
		benchLine bool
	}{
		{"ffwd", func(reg *obs.Registry) (*backend, error) { return newFFWDBackend(o, reg) },
			parentFrontends + parentStore + parentRequests + parentCore, addedText + addedStore + addedCore, true},
		{"mutex", func(reg *obs.Registry) (*backend, error) { return newMutexBackend(o, reg), nil },
			parentFrontends + parentStore, addedText + addedStore, false},
		{"replicated", func(reg *obs.Registry) (*backend, error) {
			return newReplicatedBackend(o, apps.ReplicatedConfig{Replicas: 3}, reg)
		}, parentFrontends + parentReplicated + parentRequests, addedText + parentCore + addedCore + addedReplicated, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			be, err := tc.build(reg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(be.stop)
			// Both groups in one registry, as under -proto both: Add panics
			// on a name or key collision.
			tsrv, taddr := listen(t, frontend.Config{Codec: frontend.Text{Stats: be.groupStats}, Execs: be.pools[0]})
			reg.Add("text stats", tsrv.StatRows)
			bsrv, baddr := listen(t, frontend.Config{Execs: be.pools[1]})
			reg.Add("binary stats", bsrv.StatRows)

			_, _, text := dialText(t, taddr)
			bin := dialBinary(t, baddr)
			for _, cmd := range []string{"set 1 10", "get 1", "get 2", "mget 1 2 3"} {
				text(cmd)
				bin.handle(cmd)
			}

			sample := reg.Sample()
			var prom strings.Builder
			if err := sample.WriteText(&prom); err != nil {
				t.Fatal(err)
			}
			promVals, promTypes := parseProm(t, prom.String())
			vars := sample.Vars()
			report := strings.Join(sample.Report(), "\n") + "\n"
			rows := 0
			for _, g := range sample {
				for _, r := range g.Rows {
					rows++
					want := strconv.FormatFloat(r.Value, 'f', -1, 64)
					if got, ok := promVals[r.Name]; !ok || got != want {
						t.Errorf("/metrics %s = %q, %v; the sample has %s", r.Name, got, ok, want)
					}
					if got, ok := vars[r.Key]; !ok || got != r.Value {
						t.Errorf("/debug/vars %s = %v, %v; the sample has %s", r.Key, got, ok, want)
					}
					if field := " " + r.Key + "=" + want; !strings.Contains(report, field+" ") && !strings.Contains(report, field+"\n") {
						t.Errorf("report has no field%s:\n%s", field, report)
					}
				}
			}
			if len(promVals) != rows || len(vars) != rows {
				t.Errorf("%d rows sampled, but %d on /metrics and %d in /debug/vars", rows, len(promVals), len(vars))
			}

			// The rows are live: both connections and their ops are counted.
			if vars["text_accepted"] != 1 || vars["text_frames"] != 4 || vars["bin_accepted"] != 1 || vars["bin_frames"] != 4 {
				t.Errorf("text_accepted=%v text_frames=%v bin_accepted=%v bin_frames=%v, want 1, 4, 1, 4", vars["text_accepted"], vars["text_frames"], vars["bin_accepted"], vars["bin_frames"])
			}
			if hits, ok := vars["store_hits"]; ok && hits != 4 { // get 1 and mget's key 1, twice over
				t.Errorf("store_hits = %v, want 4", hits)
			}

			var got []string
			for name, typ := range promTypes {
				got = append(got, name+" "+typ)
			}
			sort.Strings(got)
			want := strings.Split(strings.TrimSpace(tc.parent+tc.added), "\n")
			sort.Strings(want)
			if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
				t.Errorf("Prometheus name/type set:\n%s\nwant the parent commit's plus the declared additions:\n%s", g, w)
			}

			if m := benchmarkStatsLine.FindStringSubmatch(report); tc.benchLine && (m == nil || m[1] == "0") {
				t.Errorf("report lacks the benchmark's stats line (with requests served): %v\n%s", m, report)
			}
		})
	}
}

// parseProm reads Prometheus text exposition into value and type by
// metric name.
func parseProm(t *testing.T, text string) (vals, types map[string]string) {
	t.Helper()
	vals, types = map[string]string{}, map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case strings.HasPrefix(sc.Text(), "# HELP "):
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			types[f[2]] = f[3]
		case len(f) == 2:
			vals[f[0]] = f[1]
		default:
			t.Fatalf("unparseable exposition line %q", sc.Text())
		}
	}
	return vals, types
}

// TestFFWDExecOneHandle pins what the ffwd executor pools cost at the
// derived default — one delegation slot per executor, GOMAXPROCS
// executors per served protocol, so that under -proto both the
// delegation server registers at most 2p + 1 slots at GOMAXPROCS = p (the
// +1 is the stats scrape's client) — and no allocation for a batch that
// mixes singles with a multi-get and a stats read.
func TestFFWDExecOneHandle(t *testing.T) {
	build := func() *backend {
		be, err := newFFWDBackend(storeOpts{capacity: 1024, execs: defaultExecs(false), pools: 2}, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	procs := runtime.GOMAXPROCS(0)
	for p := 1; p <= 8; p++ {
		runtime.GOMAXPROCS(p)
		be := build()
		slots := map[int]bool{}
		for i, pool := range be.pools {
			if len(pool) != p {
				t.Errorf("GOMAXPROCS=%d: pool %d holds %d executors, want %d", p, i, len(pool), p)
			}
			for _, e := range pool {
				slots[e.(*ffwdExec).c.Slot()] = true
			}
		}
		if total := len(slots) + 1; total != 2*p+1 {
			t.Errorf("GOMAXPROCS=%d: %d delegation slots registered, want one per executor, %d in all", p, total, 2*p+1)
		}
		be.stop()
	}
	runtime.GOMAXPROCS(procs)
	be := build()
	t.Cleanup(be.stop)

	keys := make([]uint64, wireproto.MGetMax)
	for i := range keys {
		keys[i] = uint64(i)
	}
	ops := []frontend.Op{
		{Kind: wireproto.OpSet, Key: 1, Val: 10},
		{Kind: wireproto.OpGet, Key: 1},
		{Kind: wireproto.OpMGet, Keys: keys},
		{Kind: wireproto.OpStats},
		{Kind: wireproto.OpLen}, // (not a del: re-inserting its key would allocate the store's entry)
	}
	results := make([]frontend.Result, len(ops))
	results[2].Vals = make([]uint64, len(keys))
	for name, ex := range map[string]frontend.Exec{"text": be.pools[0][0], "binary": be.pools[1][0]} {
		ex.ExecBatch(ops, results) // warm up
		if allocs := testing.AllocsPerRun(100, func() { ex.ExecBatch(ops, results) }); allocs != 0 {
			t.Errorf("%s executor: ExecBatch allocates %.1f objects per batch, want 0", name, allocs)
		}
		if results[1].Val != 10 || results[2].Vals[1] != 10 || results[2].Vals[2] != wireproto.MissValue ||
			results[3].Status != wireproto.RespStats || results[3].Hits == 0 || results[4].Val != 1 {
			t.Errorf("%s executor: results %+v", name, results)
		}
	}
}
