package apps

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/linear"
	"ffwd/internal/replica"
)

// The replicated chaos suite: a 3-member ReplicatedKV is driven by
// concurrent clients while one seeded injector kills whole leader
// generations mid-flush AND injects replication faults (partition
// bursts, slow follower links) into the same run. A repair goroutine
// plays operator: it revives dead members and reopens the shard after
// quorum loss, so the run exercises the full lifecycle — crash, election,
// ledger-deduplicated retry, snapshot catch-up of wiped members — and the
// recorded history must still linearize against the sequential KV spec.
// Run via `make replica-chaos` (three seeds) or with FFWD_CHAOS_SEED=n.

func rkvSplitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// repairLoop is the chaos run's operator: every tick it revives dead
// members (they come back wiped and catch up lazily, via snapshot when
// the leader truncated) and, if a second leader death beat the revival
// and collapsed the quorum, re-runs the election. Without it a chaos run
// could legitimately wedge down — correct but untestable.
func repairLoop(r *ReplicatedKV, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	g := r.Group()
	for {
		select {
		case <-stop:
			return
		case <-time.After(200 * time.Microsecond):
		}
		for i := 0; i < g.Members(); i++ {
			_ = g.Restart(i) // errors (alive, or still leader) are fine
		}
		if r.Server() == nil {
			_ = r.Reopen()
		}
	}
}

// TestReplicaChaosLinearizable drives the replicated KV through the
// seeded replication fault mix with concurrent exactly-once clients and
// checks the full recorded history against the sequential KV model —
// unique per-(worker,op) values make any lost or doubly-applied write
// visible — then proves the checker bites by mutating one real read.
// Half the workers write one op at a time; the other half commit bursts
// through WriteBatch, so group commits — including runs closed at a
// delete and bursts retried across a leader kill — are in every history.
func TestReplicaChaosLinearizable(t *testing.T) {
	const workers, opsEach, keys = 4, 200, 8
	for _, seed := range rkvSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			inj := fault.ReplicaFromSeed(seed)
			t.Logf("plan: %v", inj)
			r, err := NewReplicatedKV(1024, ReplicatedConfig{
				Replicas:      3,
				SnapshotEvery: 16,
				Core:          core.Config{MaxClients: workers, Hooks: inj},
				Supervisor:    core.SupervisorConfig{Interval: 200 * time.Microsecond, KickAfter: 2},
				Hooks:         inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			stopRepair := make(chan struct{})
			var repairWG sync.WaitGroup
			repairWG.Add(1)
			go repairLoop(r, stopRepair, &repairWG)

			rec := linear.NewRecorder()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				w := w
				go func() {
					defer wg.Done()
					k := r.NewClientPolicy(RKVPolicy{MaxAttempts: 800, PerTry: 5 * time.Millisecond})
					defer k.Close()
					rng := seed<<8 | uint64(w)
					for i := 0; i < opsEach; i++ {
						key := rkvSplitmix(&rng) % keys
						v := uint64(w+1)<<32 | uint64(i+1)
						switch op := rkvSplitmix(&rng) % 10; {
						case op < 5 && w%2 == 1: // a burst of writes, one WriteBatch
							ws := make([]replica.Write, 2+rkvSplitmix(&rng)%4)
							idx := make([]int, len(ws))
							for j := range ws {
								k := rkvSplitmix(&rng) % keys
								if rkvSplitmix(&rng)%5 == 0 {
									ws[j] = replica.Write{Kind: replica.OpDel, Key: k}
									idx[j] = rec.Invoke(w, linear.KVDel, k, 0)
								} else {
									ws[j] = replica.Write{Kind: replica.OpSet, Key: k, Val: v<<4 | uint64(j)}
									idx[j] = rec.Invoke(w, linear.KVSet, k, ws[j].Val)
								}
							}
							rets := make([]uint64, len(ws))
							done, _ := k.WriteBatch(ws, rets)
							for j := 0; j < done; j++ { // the rest: fate unknown, stays pending
								rec.Complete(idx[j], 0, ws[j].Kind == replica.OpDel && rets[j] == 1)
							}
						case op < 4: // set
							idx := rec.Invoke(w, linear.KVSet, key, v)
							if err := k.Set(key, v); err != nil {
								continue // fate unknown: op stays pending
							}
							rec.Complete(idx, 0, false)
						case op == 4: // delete
							idx := rec.Invoke(w, linear.KVDel, key, 0)
							present, err := k.Delete(key)
							if err != nil {
								continue // fate unknown: op stays pending
							}
							rec.Complete(idx, 0, present)
						default: // get
							idx := rec.Invoke(w, linear.KVGet, key, 0)
							got, ok, err := k.Get(key)
							if err != nil {
								continue // never answered: op stays pending
							}
							rec.Complete(idx, got, ok)
						}
					}
				}()
			}
			wg.Wait()
			close(stopRepair)
			repairWG.Wait()

			hh := rec.History()
			if p := linear.FailingPartition(linear.KVModel(), hh); p >= 0 {
				t.Fatalf("replicated chaos history not linearizable (partition %d of %d ops)", p, len(hh))
			}

			st := r.Group().Stats()
			c := inj.Counts()
			t.Logf("ops=%d commits=%d failovers=%d ledger-hits=%d apply-dups=%d no-quorum=%d snapshots=%d installs=%d truncated=%d restarts=%d kills=%d dropped-appends=%d slow-appends=%d",
				len(hh), st.Commits, st.Failovers, st.LedgerHits, st.ApplyDups, st.NoQuorum,
				st.Snapshots, st.SnapshotInstalls, st.EntriesTruncated, st.Restarts,
				c.Kills, c.DroppedAppends, c.SlowAppends)
			if c.Kills == 0 || st.Failovers == 0 {
				t.Fatalf("kills=%d failovers=%d; the seeded kill plan missed the workload", c.Kills, st.Failovers)
			}
			if c.DroppedAppends == 0 {
				t.Fatal("no appends dropped; the partition plan missed the workload")
			}
			if st.Commits == 0 {
				t.Fatal("no writes committed")
			}

			// The seeded-mutant leg: corrupt one successful real read to a
			// value no worker ever wrote; the checker must reject it.
			mutant := make([]linear.Op, len(hh))
			copy(mutant, hh)
			mutated := false
			for i := range mutant {
				if mutant[i].Kind == linear.KVGet && !mutant[i].Pending && mutant[i].OutOK {
					mutant[i].Out = 0xdead0000dead
					mutated = true
					break
				}
			}
			if !mutated {
				t.Fatal("no successful read recorded; widen the workload")
			}
			if linear.Check(linear.KVModel(), mutant) {
				t.Fatal("mutated real history accepted: the checker is vacuous on this alphabet")
			}
		})
	}
}
