package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
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

// repCounters split leader-local ops (get/mget/len) from replicated ops
// (set/del) across every executor.
type repCounters struct {
	localOps    atomic.Uint64 // completed leader-local reads
	repOps      atomic.Uint64 // completed replicated writes
	repInFlight atomic.Int64
}

// statRows declares the op counters, once, for every stats sink (see
// obs.Registry).
func (c *repCounters) statRows() []obs.Row {
	return []obs.Row{
		{Name: "ffwdserve_local_ops_total", Key: "local_ops", Help: "Completed leader-local read commands (get/mget/len).", Value: float64(c.localOps.Load())},
		{Name: "ffwdserve_replicated_ops_total", Key: "replicated_ops", Help: "Completed replicated write commands (set/del).", Value: float64(c.repOps.Load())},
		{Name: "ffwdserve_replicated_ops_in_flight", Key: "replicated_ops_in_flight", Help: "Replicated write commands currently executing.", Value: float64(c.repInFlight.Load())},
	}
}

// newReplicatedBackend builds and starts the replica group rcfg
// describes (in-process members, or a durable pinned leader with
// follower processes), its executor pools, and registers the group's
// stats.
func newReplicatedBackend(o storeOpts, rcfg apps.ReplicatedConfig, reg *obs.Registry) (*backend, error) {
	rcfg.Core = core.Config{MaxClients: o.pools * o.execs, IdleParkAfter: o.parkAfter}
	rcfg.Supervisor = supervisorCadence
	if o.chaosSeed != 0 {
		inj := fault.ReplicaFromSeed(o.chaosSeed)
		rcfg.Core.Hooks, rcfg.Hooks = inj, inj
		log.Printf("ffwdserve: replica chaos injection on: %v", inj)
	}
	be := &backend{}
	if o.trace {
		be.sink = obs.NewTraceSink(obs.SinkConfig{Clients: rcfg.Core.MaxClients})
		rcfg.Core.Trace = be.sink
	}
	rkv, err := apps.NewReplicatedKV(o.capacity, rcfg)
	if err != nil {
		return nil, err
	}
	if err := rkv.Start(); err != nil {
		return nil, err
	}
	cnt := &repCounters{}
	be.pools, _ = newPools(o, func() (frontend.Exec, error) { return &repExec{kv: rkv.NewClient(), cnt: cnt}, nil })
	be.groupStats = func() string { return repStatsLine(rkv.Group()) }
	be.stop = rkv.Stop
	// The report keeps replicated writes separate from leader-local
	// reads: a replicated op in flight at shutdown was force-closed
	// mid-commit and may still have landed on the group, which is exactly
	// what the replicated ledger disambiguates for a retrying client.
	reg.Add("op stats", cnt.statRows)
	reg.Add("replica stats", func() []obs.Row { return rkv.Group().Stats().Rows() })
	if st := rkv.Store(); st != nil {
		ws := st.Stats()
		log.Printf("ffwdserve: durable pinned leader: dir=%s fsync=%s peers=%v term=%d torn=%d/%dB",
			rcfg.DataDir, rcfg.Fsync, rcfg.Peers, rkv.Group().Stats().Term, ws.TornRecords, ws.TornBytes)
		// Group commit's receipts: records per write(2), entries per wire
		// frame (heartbeats count as frames).
		reg.Add("durable stats", func() []obs.Row {
			frames := uint64(0)
			for _, p := range rkv.Peers() {
				frames += p.Stats().Frames
			}
			return append(st.Stats().Rows(), obs.Row{Name: "ffwd_replica_peer_frames_total", Key: "peer_frames",
				Help: "Frames sent to follower processes (appends and heartbeats).", Value: float64(frames)})
		})
	}
	// The leader's delegation server changes identity across failovers,
	// so it is sampled through the group-aware accessor (zeros while the
	// shard is down).
	reg.Add("leader server stats", func() []obs.Row {
		var st core.Stats
		if srv := rkv.Server(); srv != nil {
			st = srv.Stats()
		}
		return st.Rows()
	})
	return be, nil
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

// repStatsLine is the replicated backend's reply to the text stats verb.
func repStatsLine(g *replica.Group) string {
	st := g.Stats()
	return fmt.Sprintf("STATS term=%d leader=%d alive=%d/%d commit_index=%d commits=%d ledger_hits=%d apply_dups=%d append_drops=%d failovers=%d snapshots=%d snapshot_installs=%d log_truncated=%d remote_acks=%d remote_nacks=%d",
		st.Term, st.LeaderID, st.AliveReplicas, st.Replicas, st.CommitIndex,
		st.Commits, st.LedgerHits, st.ApplyDups, st.AppendDrops, st.Failovers,
		st.Snapshots, st.SnapshotInstalls, st.EntriesTruncated, st.RemoteAcks, st.RemoteNacks)
}
