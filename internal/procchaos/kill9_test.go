package procchaos

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/fault"
	"ffwd/internal/linear"
)

func procSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds, err := fault.SeedsFromEnv(5, 9, 13)
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

// waitCount polls an atomic counter until it reaches want.
func waitCount(t *testing.T, what string, n *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for n.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: stuck at %d, want >= %d", what, n.Load(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopApplied SIGTERMs a member process and parses the applied index
// from its shutdown report — the only stats channel a follower has.
func stopApplied(t *testing.T, p *proc) uint64 {
	t.Helper()
	p.sigterm()
	p.waitExit(10 * time.Second)
	v, err := strconv.ParseUint(p.waitLog(reApplied, 5*time.Second), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestProcKill9Matrix is the randomized multi-process chaos leg: a
// durable pinned leader and two follower processes take a concurrent
// keyspace workload while the harness SIGKILLs first the leader and
// then a follower mid-commit-burst, restarting each from its surviving
// on-disk state. Every op's fate is recorded — acked, answered, or
// pending when a process died under it — and the full history plus a
// final read of every key must linearize under the KV model: an acked
// write lost in a crash, or a read serving pre-crash state after
// recovery, fails the check.
func TestProcKill9Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos matrix is not a -short test")
	}
	const workers, keys = 4, 8
	for _, seed := range procSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			dir := runDir(t)
			la, a1, a2 := freePort(t), freePort(t), freePort(t)
			m1 := member(t, dir, "m1", "m1", a1, nil)
			m2 := member(t, dir, "m2", "m2", a2, nil)
			ld := leader(t, dir, "leader", la, []string{a1, a2}, nil)

			rec := linear.NewRecorder()
			var completed atomic.Uint64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				w := w
				go func() {
					defer wg.Done()
					c := &client{addr: la}
					defer c.drop()
					rng := seed<<8 | uint64(w)
					for i := 1; !stop.Load(); i++ {
						// Dial first: an op that can't even reach the
						// server never enters the history.
						if err := c.ensure(); err != nil {
							time.Sleep(20 * time.Millisecond)
							continue
						}
						key := splitmix(&rng) % keys
						v := uint64(w+1)<<32 | uint64(i)
						switch splitmix(&rng) % 10 {
						case 0, 1, 2, 3: // set
							idx := rec.Invoke(w, linear.KVSet, key, v)
							if _, err := c.do(fmt.Sprintf("set %d %d", key, v)); err != nil {
								continue // fate unknown: stays pending
							}
							rec.Complete(idx, 0, false)
						case 4: // delete
							idx := rec.Invoke(w, linear.KVDel, key, 0)
							resp, err := c.do(fmt.Sprintf("del %d", key))
							if err != nil {
								continue // fate unknown: stays pending
							}
							rec.Complete(idx, 0, resp == "DELETED")
						default: // get
							idx := rec.Invoke(w, linear.KVGet, key, 0)
							resp, err := c.do(fmt.Sprintf("get %d", key))
							if err != nil {
								continue // never answered: stays pending
							}
							got, ok := parseValue(t, resp)
							rec.Complete(idx, got, ok)
						}
						completed.Add(1)
						time.Sleep(time.Millisecond)
					}
				}()
			}

			// Phase 1: let a burst commit, then SIGKILL the leader
			// process under it and restart from the same data dir.
			waitCount(t, "pre-kill ops", &completed, 20)
			ld.kill9()
			ld.waitExit(10 * time.Second)
			leader(t, dir, "leader2", la, []string{a1, a2}, nil)

			// Phase 2: with traffic flowing against the recovered
			// leader, SIGKILL a follower mid-burst and restart it.
			waitCount(t, "post-leader-restart ops", &completed, completed.Load()+25)
			m1.kill9()
			m1.waitExit(10 * time.Second)
			m1b := member(t, dir, "m1b", "m1", a1, nil)

			waitCount(t, "post-follower-restart ops", &completed, completed.Load()+20)
			stop.Store(true)
			wg.Wait()

			// Final reads: a fresh client reads every key through the
			// recovered cluster and the answers join the history, so
			// recovery state is checked against everything acked above.
			vc := &client{addr: la}
			defer vc.drop()
			waitAlive(t, vc, 3, 15*time.Second)
			for key := uint64(0); key < keys; key++ {
				idx := rec.Invoke(workers, linear.KVGet, key, 0)
				got, ok := parseValue(t, vc.mustDo(t, fmt.Sprintf("get %d", key), 10*time.Second))
				rec.Complete(idx, got, ok)
			}

			hh := rec.History()
			if p := linear.FailingPartition(linear.KVModel(), hh); p >= 0 {
				t.Fatalf("cross-process kill9 history not linearizable (partition %d of %d ops)", p, len(hh))
			}

			// Convergence: no writes are in flight anymore, so the
			// followers' applied index must reach the leader's final
			// commit index once heartbeats carry it over.
			resp := vc.mustDo(t, "stats", 5*time.Second)
			commit := statsField(t, resp, "commit_index")
			if commit == 0 {
				t.Fatal("no writes committed; the workload never landed")
			}
			time.Sleep(1200 * time.Millisecond) // heartbeats every 250ms carry the commit index
			if a := stopApplied(t, m1b); a != commit {
				t.Fatalf("restarted follower applied=%d, leader commit_index=%d", a, commit)
			}
			if a := stopApplied(t, m2); a != commit {
				t.Fatalf("follower m2 applied=%d, leader commit_index=%d", a, commit)
			}
			t.Logf("seed=%d: %d ops in history, commit_index=%d, both followers converged", seed, len(hh), commit)
		})
	}
}

// TestProcLeaderTornWAL arms FFWD_CRASH_POINT so the leader SIGKILLs
// itself partway through writing WAL record 12, leaving a torn tail on
// disk. The restarted process must report exactly that torn suffix
// (torn=1/9B), truncate it, and still serve every write that was acked
// before the crash.
func TestProcLeaderTornWAL(t *testing.T) {
	dir := runDir(t)
	la, a1, a2 := freePort(t), freePort(t), freePort(t)
	member(t, dir, "m1", "m1", a1, nil)
	member(t, dir, "m2", "m2", a2, nil)
	ld := leader(t, dir, "leader", la, []string{a1, a2},
		[]string{"FFWD_CRASH_POINT=wal-record:12:9"})

	c := &client{addr: la}
	defer c.drop()
	acked := map[uint64]uint64{}
	for i := uint64(1); i <= 50; i++ {
		if _, err := c.do(fmt.Sprintf("set %d %d", i%7, 1000+i)); err != nil {
			break // the crash point fired mid-record
		}
		acked[i%7] = 1000 + i
	}
	ld.waitExit(10 * time.Second)
	if len(acked) == 0 {
		t.Fatal("leader died before any write was acked; crash point fired too early")
	}

	ld2 := leader(t, dir, "leader2", la, []string{a1, a2}, nil)
	ld2.waitLog(regexp1("torn=1/9B"), 5*time.Second)
	c.drop()
	for k, v := range acked {
		got, ok := parseValue(t, c.mustDo(t, fmt.Sprintf("get %d", k), 10*time.Second))
		if !ok || got != v {
			t.Fatalf("acked write lost across torn-tail recovery: key %d = %d,%v, want %d", k, got, ok, v)
		}
	}
}

// TestProcFollowerTornWAL tears a follower's WAL instead: the follower
// self-kills 13 bytes into record 8 while writes keep succeeding on the
// leader + remaining-follower quorum. The restarted follower must
// report the torn suffix, re-replicate what it lost, and converge to
// the leader's commit index.
func TestProcFollowerTornWAL(t *testing.T) {
	dir := runDir(t)
	la, a1, a2 := freePort(t), freePort(t), freePort(t)
	m1 := member(t, dir, "m1", "m1", a1,
		[]string{"FFWD_CRASH_POINT=wal-record:8:13"})
	member(t, dir, "m2", "m2", a2, nil)
	leader(t, dir, "leader", la, []string{a1, a2}, nil)

	c := &client{addr: la}
	defer c.drop()
	for i := uint64(1); i <= 20; i++ {
		c.mustDo(t, fmt.Sprintf("set %d %d", i%5, 2000+i), 15*time.Second)
	}
	m1.waitExit(10 * time.Second) // record 8 landed well inside 20 appends

	m1b := member(t, dir, "m1b", "m1", a1, nil)
	m1b.waitLog(regexp1("torn=1/13B"), 5*time.Second)
	waitAlive(t, c, 3, 15*time.Second)
	resp := c.mustDo(t, "stats", 5*time.Second)
	commit := statsField(t, resp, "commit_index")
	time.Sleep(1200 * time.Millisecond)
	if a := stopApplied(t, m1b); a != commit {
		t.Fatalf("torn follower applied=%d after recovery, leader commit_index=%d", a, commit)
	}
}

// TestProcFollowerSnapshotInstallCrash drives a follower through the
// worst catch-up path: it is SIGKILLed, misses enough commits that the
// leader (snapshotting every 4 commits) truncates the log past it, and
// on restart must catch up by snapshot install — during which
// FFWD_CRASH_POINT=snap-temp:1 kills it after the temp snapshot file is
// written but before the rename. The orphaned temp must be on disk, and
// a final clean restart must install the snapshot and converge.
func TestProcFollowerSnapshotInstallCrash(t *testing.T) {
	dir := runDir(t)
	la, a1, a2 := freePort(t), freePort(t), freePort(t)
	m1 := member(t, dir, "m1", "m1", a1, nil)
	member(t, dir, "m2", "m2", a2, nil)
	leader(t, dir, "leader", la, []string{a1, a2}, nil, "-snapshot-every", "4")

	c := &client{addr: la}
	defer c.drop()
	for i := uint64(1); i <= 5; i++ {
		c.mustDo(t, fmt.Sprintf("set %d %d", i%3, 3000+i), 15*time.Second)
	}
	m1.kill9()
	m1.waitExit(10 * time.Second)
	// 30 more commits at snapshot-every=4 truncate the leader's log far
	// past the dead follower's position, forcing snapshot catch-up.
	for i := uint64(6); i <= 35; i++ {
		c.mustDo(t, fmt.Sprintf("set %d %d", i%3, 3000+i), 15*time.Second)
	}

	m1b := member(t, dir, "m1b", "m1", a1,
		[]string{"FFWD_CRASH_POINT=snap-temp:1"})
	m1b.waitExit(15 * time.Second) // dies mid-install, temp written but never renamed
	temps, err := filepath.Glob(filepath.Join(dir, "m1", "snap-*tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) == 0 {
		t.Fatal("no orphaned snapshot temp file after mid-install crash")
	}

	m1c := member(t, dir, "m1c", "m1", a1, nil)
	waitAlive(t, c, 3, 15*time.Second)
	resp := c.mustDo(t, "stats", 5*time.Second)
	commit := statsField(t, resp, "commit_index")
	time.Sleep(1200 * time.Millisecond)
	m1c.sigterm()
	m1c.waitExit(10 * time.Second)
	installs, err := strconv.ParseUint(m1c.waitLog(reSnapInst, 5*time.Second), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if installs == 0 {
		t.Fatal("follower converged without a snapshot install; the truncation never forced one")
	}
	applied, err := strconv.ParseUint(m1c.waitLog(reApplied, time.Second), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if applied != commit {
		t.Fatalf("snapshot-installed follower applied=%d, leader commit_index=%d", applied, commit)
	}
}

// burst sends lines in one TCP write — the pipelined burst the leader
// commits as one group — and reads one reply per line, returning the
// replies that arrived before the connection died (all of them, and a
// nil error, when it did not).
func (c *client) burst(lines []string) ([]string, error) {
	if err := c.ensure(); err != nil {
		return nil, err
	}
	c.conn.SetDeadline(time.Now().Add(15 * time.Second))
	if _, err := c.conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		c.drop()
		return nil, err
	}
	var resps []string
	for range lines {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			c.drop()
			return resps, err
		}
		resps = append(resps, strings.TrimSpace(resp))
	}
	return resps, nil
}

// setBursts drives `bursts` bursts of four SETs each over six keys
// through c, recording every write in rec, and stops at the first burst
// whose replies do not all arrive (those writes stay pending: fate
// unknown). It returns how many bursts were fully acknowledged.
func setBursts(t *testing.T, c *client, rec *linear.Recorder, bursts int) int {
	t.Helper()
	for b := 0; b < bursts; b++ {
		lines := make([]string, 4)
		idx := make([]int, 4)
		for j := range lines {
			key, v := uint64(b*4+j)%6, uint64(b+1)<<8|uint64(j)
			lines[j] = fmt.Sprintf("set %d %d", key, v)
			idx[j] = rec.Invoke(0, linear.KVSet, key, v)
		}
		resps, err := c.burst(lines)
		for j, resp := range resps {
			if resp != "STORED" {
				t.Fatalf("burst %d write %d answered %q", b, j, resp)
			}
			rec.Complete(idx[j], 0, false)
		}
		if err != nil {
			return b
		}
	}
	return bursts
}

// readAllKeys reads the six keys through a fresh connection into the
// history, so recovery state is checked against everything acknowledged.
func readAllKeys(t *testing.T, addr string, rec *linear.Recorder) *client {
	t.Helper()
	vc := &client{addr: addr}
	for key := uint64(0); key < 6; key++ {
		idx := rec.Invoke(1, linear.KVGet, key, 0)
		got, ok := parseValue(t, vc.mustDo(t, fmt.Sprintf("get %d", key), 10*time.Second))
		rec.Complete(idx, got, ok)
	}
	return vc
}

// TestProcLeaderCrashMidGroupCommit kills the leader inside a
// multi-record WAL append: with bursts of four SETs, record 10 is the
// second record of the third group commit, so FFWD_CRASH_POINT leaves
// record 9 whole and 9 bytes of record 10 on disk — a batch torn in the
// middle. The restarted leader must truncate the torn record, keep and
// commit the surviving prefix of the batch (it is pinned: its durable log
// is authoritative), lose nothing that was acknowledged, and the history
// — the torn burst's writes pending — must linearize.
func TestProcLeaderCrashMidGroupCommit(t *testing.T) {
	dir := runDir(t)
	la, a1, a2 := freePort(t), freePort(t), freePort(t)
	m1 := member(t, dir, "m1", "m1", a1, nil)
	member(t, dir, "m2", "m2", a2, nil)
	ld := leader(t, dir, "leader", la, []string{a1, a2},
		[]string{"FFWD_CRASH_POINT=wal-record:10:9"})

	c := &client{addr: la}
	defer c.drop()
	waitAlive(t, c, 3, 15*time.Second)
	rec := linear.NewRecorder()
	if acked := setBursts(t, c, rec, 10); acked != 2 {
		t.Fatalf("%d bursts acknowledged before the crash point, want 2 (records 1-8)", acked)
	}
	ld.waitExit(10 * time.Second)

	ld2 := leader(t, dir, "leader2", la, []string{a1, a2}, nil)
	ld2.waitLog(regexp1("torn=1/9B"), 5*time.Second)
	vc := readAllKeys(t, la, rec)
	defer vc.drop()
	if p := linear.FailingPartition(linear.KVModel(), rec.History()); p >= 0 {
		t.Fatalf("history across a mid-group-commit leader crash not linearizable (partition %d)", p)
	}
	// Records 1-8 were acknowledged; record 9 is the torn batch's
	// surviving prefix, committed by the pinned leader's recovery.
	waitAlive(t, vc, 3, 15*time.Second)
	commit := statsField(t, vc.mustDo(t, "stats", 5*time.Second), "commit_index")
	if commit != 9 {
		t.Fatalf("recovered commit_index = %d, want 9", commit)
	}
	time.Sleep(1200 * time.Millisecond) // heartbeats carry the suffix and the cursor over
	if a := stopApplied(t, m1); a != commit {
		t.Fatalf("follower applied=%d, leader commit_index=%d", a, commit)
	}
}

// TestProcFollowerCrashMidGroupCommit tears a follower's WAL the same
// way: one append frame per burst means one multi-record WAL append per
// burst on the follower too, and record 10 is again mid-batch. Writes
// keep committing on the leader + remaining follower; the restarted
// follower must report the torn record, have kept the batch's first
// record, re-replicate the rest, and converge.
func TestProcFollowerCrashMidGroupCommit(t *testing.T) {
	dir := runDir(t)
	la, a1, a2 := freePort(t), freePort(t), freePort(t)
	m1 := member(t, dir, "m1", "m1", a1,
		[]string{"FFWD_CRASH_POINT=wal-record:10:13"})
	member(t, dir, "m2", "m2", a2, nil)
	leader(t, dir, "leader", la, []string{a1, a2}, nil)

	c := &client{addr: la}
	defer c.drop()
	waitAlive(t, c, 3, 15*time.Second)
	rec := linear.NewRecorder()
	if acked := setBursts(t, c, rec, 6); acked != 6 {
		t.Fatalf("%d of 6 bursts acknowledged; one follower's death must not cost the quorum", acked)
	}
	m1.waitExit(10 * time.Second)

	m1b := member(t, dir, "m1b", "m1", a1, nil)
	m1b.waitLog(regexp1("log=9 torn=1/13B"), 5*time.Second)
	vc := readAllKeys(t, la, rec)
	defer vc.drop()
	if p := linear.FailingPartition(linear.KVModel(), rec.History()); p >= 0 {
		t.Fatalf("history across a mid-group-commit follower crash not linearizable (partition %d)", p)
	}
	waitAlive(t, vc, 3, 15*time.Second)
	commit := statsField(t, vc.mustDo(t, "stats", 5*time.Second), "commit_index")
	if commit != 24 {
		t.Fatalf("commit_index = %d, want 24", commit)
	}
	time.Sleep(1200 * time.Millisecond)
	if a := stopApplied(t, m1b); a != commit {
		t.Fatalf("torn follower applied=%d after recovery, leader commit_index=%d", a, commit)
	}
}
