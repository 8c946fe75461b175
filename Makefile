# Development targets for the ffwd reproduction.

GO ?= go
CHAOS_SEED ?= 1

.PHONY: all build vet test test-cpus race bench bench-hot bench-smoke bench-e2e-smoke check chaos replica-chaos proc-chaos linear expiry loadtest fuzz trace figures ablations coverage loc loc-check clean

all: build vet test

# The pre-merge gate: vet, full build, race-enabled tests of the hot-path
# packages, the linearizability suite (single-server and replicated), the
# multi-process kill -9 matrix, the trace pipeline end to end, the serving
# loadtest smoke, a two-second pass of every end-to-end benchmark workload
# (bench-e2e-smoke), and one full-iteration pass of the core microbenches
# (bench-hot).
check: linear expiry replica-chaos proc-chaos trace loadtest bench-e2e-smoke
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/core/... ./internal/delegated/... ./cmd/ffwdserve/ ./internal/rcl/ ./internal/obs/ ./internal/reptrans/
	$(MAKE) bench-hot

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The serving stack at 1, 2 and 4 Ps: the delegation core and everything
# built on it must hold at every GOMAXPROCS, not only the host's.
CPU_PKGS ?= ./internal/core/ ./internal/apps/ ./internal/frontend/ ./cmd/ffwdserve/
test-cpus:
	$(GO) test -count=1 -cpu 1,2,4 $(CPU_PKGS)

race:
	$(GO) test -race ./...

# Chaos runs: the fault-injection suite (delayed sweeps, dropped wakes,
# panicking calls, server kills) under the race detector, deterministic
# from CHAOS_SEED (e.g. `make chaos CHAOS_SEED=7`).
chaos:
	FFWD_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -run Chaos -v ./internal/core/ ./internal/fault/

# Replica chaos: the seeded kill/partition matrix over the replicated
# delegation shard, under the race detector — leader kills mid-flush,
# partition bursts, slow followers, wiped-member revival with snapshot
# catch-up, single-op and batched (group-commit) clients side by side —
# with every recorded history checked for linearizability.
# Each seed derives its own fault plan (see fault.ReplicaFromSeed);
# override the matrix with `make replica-chaos REPLICA_SEEDS="5"`.
REPLICA_SEEDS ?= 5 9 13
replica-chaos:
	$(GO) test -race -count=1 ./internal/replica/
	@set -e; for s in $(REPLICA_SEEDS); do \
		echo "== replica chaos seed $$s =="; \
		FFWD_CHAOS_SEED=$$s $(GO) test -race -count=1 -run 'Replica' ./internal/apps/; \
	done

# Process-kill chaos: spawn a durable pinned leader plus two follower
# processes from the real ffwdserve binary, SIGKILL them mid-commit-burst
# (randomized per seed, plus deterministic torn-WAL-write and
# mid-snapshot-install crash points, on leader and follower, including a
# torn write in the middle of a multi-record group commit), restart from
# the surviving on-disk state, and check every recorded client history
# for linearizability.
# Failed runs preserve their process logs and WAL/snapshot dirs under
# FFWD_PROC_ARTIFACTS (or the system temp dir) for postmortem.
proc-chaos:
	@set -e; for s in $(REPLICA_SEEDS); do \
		echo "== proc chaos seed $$s =="; \
		FFWD_CHAOS_SEED=$$s $(GO) test -race -count=1 -run TestProc -v ./internal/procchaos/; \
	done

# Linearizability: record real histories of the delegated KV/stack/queue
# under fault injection (kills, dropped wakes, retries) and check them
# against the sequential specs, under the race detector, for two chaos
# seeds. Proves exactly-once effects end to end.
linear:
	FFWD_CHAOS_SEED=3 $(GO) test -race -count=1 ./internal/linear/
	FFWD_CHAOS_SEED=11 $(GO) test -race -count=1 ./internal/linear/

# Server-owned time: the chaos-seeded expiry storm — fault-injected kills
# while workers write short TTLs, jump the logical clock, and read back —
# checked against the sequential KV-with-TTL model under the race
# detector, plus the expiry scenarios' smoke run.
expiry:
	FFWD_CHAOS_SEED=3 $(GO) test -race -count=1 -run 'TestChaosKVTTL|TestRunExpiry' ./internal/linear/ ./internal/runtimebench/

# Serving-path loadtest smoke: build the real ffwdserve binary, serve
# both protocols, and drive each with the open-loop coordinated-omission-
# safe generator. Fails if either protocol completes zero ops or records
# no tail latency, and exercises the real ffwdload binary's exit-code
# contract.
loadtest:
	$(GO) test -count=1 -run 'TestLoad' -v ./cmd/ffwdload/

# Five fuzz targets, each for FUZZ_TIME. Four cover every decoder that
# reads bytes from outside the process: FuzzDispatch (the line codec's
# decode, frontend.Text, and the execute/format path behind it),
# FuzzWireDecode (the binary protocol's Split + DecodeRequest/
# DecodeResponse), FuzzFrameReader (the shared length+CRC32-C framing
# under the WAL and the replication transport) and FuzzReptransDecode
# (replication frame payloads and the snapshot images they carry). The
# fifth, FuzzKVIndex, runs the KV store's open-addressed index against a
# Go map, with the keys and hash seeds from the input. CI runs it with
# FUZZ_TIME=5s.
FUZZ_TIME ?= 15s
fuzz:
	$(GO) test -run=none -fuzz FuzzDispatch -fuzztime $(FUZZ_TIME) ./cmd/ffwdserve/
	$(GO) test -run=none -fuzz FuzzWireDecode -fuzztime $(FUZZ_TIME) ./internal/wireproto/
	$(GO) test -run=none -fuzz FuzzFrameReader -fuzztime $(FUZZ_TIME) ./internal/frame/
	$(GO) test -run=none -fuzz FuzzReptransDecode -fuzztime $(FUZZ_TIME) ./internal/reptrans/
	$(GO) test -run=none -fuzz FuzzKVIndex -fuzztime $(FUZZ_TIME) ./internal/apps/

# Observability smoke: capture a delegation lifecycle trace from a real
# traced workload under the race detector, then run ffwdtrace over it and
# require a non-empty phase breakdown (ffwdtrace exits nonzero when zero
# operations attribute). Proves capture → Chrome JSON → attribution end
# to end.
TRACE_OUT ?= /tmp/ffwd-trace.json
trace:
	FFWD_TRACE_OUT=$(TRACE_OUT) $(GO) test -race -count=1 -run TestTraceCaptureSmoke ./internal/core/
	$(GO) run ./cmd/ffwdtrace $(TRACE_OUT)

# One testing.B benchmark per paper table/figure plus native benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benches only: one full-iteration pass of the internal/core
# microbenches (~30 s). Fast enough for every pre-merge check; for a
# statistically honest comparison run the benchmark on both commits and
# `go run ./benchmark -compare A/results.json B/results.json`.
bench-hot:
	$(GO) test -run=none -bench=Core -benchtime=200000x ./internal/core/

# Grid smoke: run every registered backend through every structure it
# supports on the runtime harness — a few milliseconds per cell, race
# detector on — then one ffwdbench pass through the runtime layer's JSON
# output. Proves every registry cell still constructs, progresses, and
# reports sane latencies.
bench-smoke:
	$(GO) test -race -count=1 -run 'TestRunSmoke|TestSimGrid' -v ./internal/runtimebench/
	$(GO) run ./cmd/ffwdbench -layer runtime -goroutines 2 -measure 5ms -format json > /dev/null

# End-to-end benchmark smoke: vet ./benchmark and run each of its six
# workloads for two seconds against this checkout. The benchmark exits
# nonzero when an operation fails, is refused, breaks the oracle or is
# lost across the closing kill -9, and when a workload completes nothing
# — so a change to an internal API the benchmark calls, or to a log line
# it parses, breaks the build here and not at the next measurement. The
# numbers it prints are not compared with anything.
BENCH_WORKLOADS ?= lib-sync lib-pipelined-churn serve-binary-sat serve-binary-unloaded serve-text-sat serve-durable-write
bench-e2e-smoke:
	$(GO) vet ./benchmark
	@set -e; for w in $(BENCH_WORKLOADS); do \
		echo "== benchmark smoke: $$w =="; \
		$(GO) run ./benchmark --workload $$w --seed 1 --seconds 2 --trace 0; \
	done

# Regenerate every table and figure as text tables (see also -format csv).
figures:
	$(GO) run ./cmd/ffwdbench -exp all

ablations:
	$(GO) run ./cmd/simexplore

coverage:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Code lines — non-blank, non-comment, non-test Go — per package, and the
# repository total outside benchmark/. ROADMAP aim 2 reads this number:
# it should go down.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { inblock = 0 } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		inblock { if (line ~ /\*\//) inblock = 0; next } \
		line == "" || line ~ /^\/\// { next } \
		line ~ /^\/\*/ { if (line !~ /\*\//) inblock = 1; next } \
		{ dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); pkg[dir]++; total++ } \
		END { for (d in pkg) printf "%7d %s\n", pkg[d], d | "sort -k2"; close("sort -k2"); \
		      printf "%7d total (non-test, excluding benchmark/)\n", total }'

# The ratchet on that number: the total may not exceed LOC_BUDGET. A PR
# that shrinks the code lowers the budget to its own total; one that must
# grow it edits this one number and says why.
LOC_BUDGET = 17479
loc-check:
	@$(MAKE) --no-print-directory loc | awk -v budget=$(LOC_BUDGET) ' \
		{ print } / total / { total = $$1 } \
		END { if (total == "" || total > budget) { printf "loc-check: %d code lines, over LOC_BUDGET %d\n", total, budget; exit 1 } }'

clean:
	rm -f coverage.out test_output.txt bench_output.txt
