package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/frontend"
)

// repBackend is a text server configuration over a fresh 3-replica
// in-process group.
type repBackend struct {
	cfg frontend.Config
	r   *apps.ReplicatedKV
	cnt *repCounters
}

func newRepBackend(t *testing.T, capacity, clients int, hooks core.Hooks) *repBackend {
	t.Helper()
	r, err := apps.NewReplicatedKV(capacity, apps.ReplicatedConfig{
		Replicas:   3,
		Core:       core.Config{MaxClients: clients, Hooks: hooks},
		Supervisor: core.SupervisorConfig{Interval: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	rb := &repBackend{r: r, cnt: &repCounters{}}
	pools, _ := newPools(storeOpts{execs: clients, pools: 1}, func() (frontend.Exec, error) { return &repExec{kv: r.NewClient(), cnt: rb.cnt}, nil })
	rb.cfg = frontend.Config{Codec: frontend.Text{Stats: func() string { return repStatsLine(r.Group()) }}, Execs: pools[0]}
	return rb
}

// TestReplicatedServeOverTCP: the replicated backend speaks the same
// protocol over a live connection, and `stats` reports the group's
// replication counters.
func TestReplicatedServeOverTCP(t *testing.T) {
	rb := newRepBackend(t, 1024, 4, nil)
	_, addr := listen(t, rb.cfg)
	_, _, send := dialText(t, addr)

	if got := send("set 7 700"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := send("get 7"); got != "VALUE 700" {
		t.Fatalf("get: %q", got)
	}
	if got := send("mget 7 8"); got != "VALUES 700 -" {
		t.Fatalf("mget: %q", got)
	}
	if got := send("del 7"); got != "DELETED" {
		t.Fatalf("del: %q", got)
	}
	if got := send("del 7"); got != "NOT_FOUND" {
		t.Fatalf("second del: %q", got)
	}
	if got := send("len"); got != "LEN 0" {
		t.Fatalf("len: %q", got)
	}
	st := send("stats")
	for _, want := range []string{"STATS term=1", "alive=3/3", "commits=3", "failovers=0"} {
		if !strings.Contains(st, want) {
			t.Fatalf("stats %q missing %q", st, want)
		}
	}
	if got := send("set 1 18446744073709551613"); got != "ERROR value reserved" {
		t.Fatalf("reserved value: %q", got)
	}
	if got := send("bogus"); got != frontend.UsageMsg {
		t.Fatalf("bogus: %q", got)
	}
	// The drain-report split: 5 local reads (get, mget, len, and the two
	// below), 3 replicated writes (set + 2 dels; the reserved-value set
	// and the usage error are rejected before reaching the counters).
	if got := send("get 8"); got != "NOT_FOUND" {
		t.Fatalf("get 8: %q", got)
	}
	if got := send("len"); got != "LEN 0" {
		t.Fatalf("len: %q", got)
	}
	if lo, ro := rb.cnt.localOps.Load(), rb.cnt.repOps.Load(); lo != 5 || ro != 3 {
		t.Fatalf("op split local=%d replicated=%d, want 5/3", lo, ro)
	}
	if rf := rb.cnt.repInFlight.Load(); rf != 0 {
		t.Fatalf("in-flight replicated=%d after quiesce, want 0", rf)
	}
}

// TestReplicatedServeFailover: a seeded leader kill lands mid-flush on a
// live TCP write; the client sees STORED anyway (served by the promoted
// leader via the replicated ledger) and the value survives the crash.
func TestReplicatedServeFailover(t *testing.T) {
	inj := fault.New(fault.Plan{KillAtOp: 4})
	rb := newRepBackend(t, 1024, 2, inj)
	_, addr := listen(t, rb.cfg)
	_, _, send := dialText(t, addr)

	for i := 1; i <= 6; i++ {
		if got := send("set " + itoa(i) + " " + itoa(100+i)); got != "STORED" {
			t.Fatalf("set %d: %q", i, got)
		}
	}
	for i := 1; i <= 6; i++ {
		if got := send("get " + itoa(i)); got != "VALUE "+itoa(100+i) {
			t.Fatalf("get %d after failover: %q", i, got)
		}
	}
	st := rb.r.Group().Stats()
	if st.Failovers != 1 || st.LedgerHits == 0 {
		t.Fatalf("failovers=%d ledger-hits=%d; the kill missed the workload", st.Failovers, st.LedgerHits)
	}
	if !strings.Contains(send("stats"), "failovers=1") {
		t.Fatalf("stats after failover: %q", send("stats"))
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestReplicatedBurstIsOneGroupCommit: a connection's pipelined burst of
// SETs, sent in one TCP write, reaches the group as one proposal — one
// delegated call, one append round per follower — and a read behind it
// sees the burst's last write.
func TestReplicatedBurstIsOneGroupCommit(t *testing.T) {
	rb := newRepBackend(t, 1024, 2, nil)
	_, addr := listen(t, rb.cfg)
	conn, r, send := dialText(t, addr)
	if got := send("set 1 1"); got != "STORED" { // binds the executor's handle
		t.Fatalf("set: %q", got)
	}
	req0, st0 := rb.r.Server().Stats().Requests, rb.r.Group().Stats()

	burst := ""
	for i := 1; i <= 8; i++ {
		burst += "set 5 " + itoa(i) + "\n"
	}
	if _, err := conn.Write([]byte(burst + "get 5\n")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 9; i++ {
		line, err := r.ReadString('\n')
		want := "STORED\n"
		if i == 9 {
			want = "VALUE 8\n"
		}
		if err != nil || line != want {
			t.Fatalf("reply %d = %q, %v; want %q", i, line, err, want)
		}
	}
	st := rb.r.Group().Stats()
	if got := rb.r.Server().Stats().Requests - req0; got != 2 {
		t.Fatalf("%d delegated calls for a burst of 8 sets and a get, want 2", got)
	}
	if st.Commits-st0.Commits != 8 || st.AppendAttempts-st0.AppendAttempts != 2 {
		t.Fatalf("commits +%d, follower appends +%d; want 8 entries in one round to each of 2 followers",
			st.Commits-st0.Commits, st.AppendAttempts-st0.AppendAttempts)
	}
}
