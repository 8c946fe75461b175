package main

import (
	"fmt"
	"sync/atomic"

	"ffwd/internal/apps"
	"ffwd/internal/frontend"
	"ffwd/internal/replica"
	"ffwd/internal/wireproto"
)

// The replicated backend: -replicas N (N > 1) or -data-dir serves the
// same protocols through an apps.ReplicatedKV, a raft-style replica
// group in which every write is quorum-acknowledged before
// STORED/DELETED goes back on the wire, and a crash of the serving
// leader promotes a follower instead of losing the store. Reads stay
// leader-local; writes pay the replication toll once per run: the text
// `stats` verb reports the group's term, commit index, and failover
// counters instead of the single store's hit/miss line.

// repCounters are the drain report's split of leader-local ops
// (get/mget/len) from replicated ops (set/del), shared by every
// executor: a replicated op force-closed mid-flight may still commit on
// the group, so its in-flight count is the interesting number at
// shutdown.
type repCounters struct {
	localOps    atomic.Uint64 // completed leader-local reads
	repOps      atomic.Uint64 // completed replicated writes
	repInFlight atomic.Int64
}

// repExec executes batches against the replicated store through its own
// replication identity (clientID, seq). It walks a batch in order and
// commits each run of consecutive writes as one group commit — one
// delegated call, one leader WAL write, one append frame, one quorum
// wait — so a connection's pipelined burst of SETs costs what one SET
// used to. A read flushes the run pending before it, which is all that
// per-connection order and read-your-writes need.
type repExec struct {
	kv  *apps.RKVClient
	cnt *repCounters

	ws   []replica.Write // the pending run
	at   []int           // ws[j] answers results[at[j]]
	rets []uint64
}

// newRepExecs builds n executors, each with its own replication handle.
func newRepExecs(r *apps.ReplicatedKV, n int, cnt *repCounters) []frontend.Exec {
	execs := make([]frontend.Exec, n)
	for i := range execs {
		execs[i] = &repExec{kv: r.NewClient(), cnt: cnt}
	}
	return execs
}

// repValueMax is the first reserved value: the top of the value space
// carries the replicated response sentinels.
const repValueMax = ^uint64(2)

// flush commits the pending run and answers its ops. A run that fails
// (retries exhausted during a failover or quorum loss) answers BUSY from
// the failed write on, never STORED.
func (e *repExec) flush(results []frontend.Result) {
	if len(e.ws) == 0 {
		return
	}
	e.cnt.repInFlight.Add(int64(len(e.ws)))
	e.rets = append(e.rets[:0], make([]uint64, len(e.ws))...)
	done, _ := e.kv.WriteBatch(e.ws, e.rets)
	for j, i := range e.at {
		switch {
		case j >= done:
			results[i].Status = wireproto.RespBusy
		case e.ws[j].Kind == replica.OpSet:
			results[i].Status = wireproto.RespStored
		default:
			results[i].Status = found(e.rets[j] == 1, wireproto.RespDeleted)
		}
	}
	e.cnt.repInFlight.Add(-int64(len(e.ws)))
	e.cnt.repOps.Add(uint64(len(e.ws)))
	e.ws, e.at = e.ws[:0], e.at[:0]
}

func (e *repExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	for i := range ops {
		op, res := &ops[i], &results[i]
		switch op.Kind {
		case wireproto.OpSet:
			if op.Val >= repValueMax {
				res.Status, res.Code = wireproto.RespError, wireproto.CodeValueReserved
			} else {
				e.ws, e.at = append(e.ws, replica.Write{Kind: replica.OpSet, Key: op.Key, Val: op.Val}), append(e.at, i)
			}
		case wireproto.OpDel:
			e.ws, e.at = append(e.ws, replica.Write{Kind: replica.OpDel, Key: op.Key}), append(e.at, i)
		case wireproto.OpGet, wireproto.OpMGet, wireproto.OpLen:
			e.flush(results)
			e.read(op, res)
			e.cnt.localOps.Add(1)
		default:
			// TTL ops are not in the replicated command set yet, and the
			// typed stats result has no fields for a group.
			res.Status, res.Code = wireproto.RespError, wireproto.CodeBadOp
		}
	}
	e.flush(results)
}

// read answers one leader-local op.
func (e *repExec) read(op *frontend.Op, res *frontend.Result) {
	var err error
	switch op.Kind {
	case wireproto.OpGet:
		var ok bool
		res.Val, ok, err = e.kv.Get(op.Key)
		res.Status = found(ok, wireproto.RespValue)
	case wireproto.OpMGet:
		for j, k := range op.Keys {
			var ok bool
			if res.Vals[j], ok, err = e.kv.Get(k); err != nil {
				break
			} else if !ok {
				res.Vals[j] = wireproto.MissValue
			}
		}
		res.Status = wireproto.RespValues
	case wireproto.OpLen:
		var n int
		n, err = e.kv.Len()
		res.Status, res.Val = wireproto.RespLen, uint64(n)
	}
	if err != nil {
		*res = frontend.Result{Status: wireproto.RespBusy, Vals: res.Vals}
	}
}

// repStatsLine is the replicated text frontend's stats reply.
func repStatsLine(g *replica.Group) string {
	st := g.Stats()
	return fmt.Sprintf("STATS term=%d leader=%d alive=%d/%d commit_index=%d commits=%d ledger_hits=%d apply_dups=%d append_drops=%d failovers=%d snapshots=%d snapshot_installs=%d log_truncated=%d remote_acks=%d remote_nacks=%d",
		st.Term, st.LeaderID, st.AliveReplicas, st.Replicas, st.CommitIndex,
		st.Commits, st.LedgerHits, st.ApplyDups, st.AppendDrops, st.Failovers,
		st.Snapshots, st.SnapshotInstalls, st.EntriesTruncated, st.RemoteAcks, st.RemoteNacks)
}
