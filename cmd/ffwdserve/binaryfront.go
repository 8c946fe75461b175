package main

import (
	"ffwd/internal/apps"
	"ffwd/internal/frontend"
	"ffwd/internal/wireproto"
)

// This file is the ffwd backend's executor: each one owns its own
// delegation handles — a KVBatchClient window for pipelined singles, a
// KVPipeClient for mget, a KVClient for the synchronous stats reads —
// all against the one shared DelegatedKV, so the store stays globally
// consistent while every executor pipelines independently. The binary
// dataplane's shard executors run a deep window; the text frontend's
// pooled executors run a window of one, which keeps a connection's
// commands in program order because a single slot cannot reorder (the
// deep window can: ROADMAP item 1b).

// ffwdExec executes batches against the delegated KV. Singles flow
// through the batch client's async window; mget and stats are
// synchronous, so pending singles are flushed first to preserve
// submission order.
type ffwdExec struct {
	batch *apps.KVBatchClient
	pipe  *apps.KVPipeClient
	kv    *apps.KVClient

	// defTTL, when nonzero, turns plain OpSet into a TTL'd store (the
	// -default-ttl flag, in server clock ticks).
	defTTL uint64

	// pend maps the batch client's completion seq to the op index of
	// the in-progress batch; curOps/curResults alias ExecBatch's
	// arguments so the completion callback is allocation-free.
	pend       []int
	curOps     []frontend.Op
	curResults []frontend.Result
	found      [wireproto.MGetMax]bool
}

// ffwdExecWindow is each binary shard's pipelined-singles depth: deep
// enough to overlap a full executor batch through the delegation
// server's sweeps, small enough that per-shard slot cost stays trivial.
const ffwdExecWindow = 16

// newFFWDExecs builds n executors of the given singles window. Slot
// budget per executor: window async + 1 synchronous + pipeDepth
// pipelined.
func newFFWDExecs(d *apps.DelegatedKV, n, window, pipeDepth int, defTTL uint64) ([]frontend.Exec, error) {
	execs := make([]frontend.Exec, 0, n)
	for i := 0; i < n; i++ {
		batch, err := d.NewBatchClient(window)
		if err != nil {
			return nil, err
		}
		pipe, err := d.NewPipelinedClient(pipeDepth)
		if err != nil {
			return nil, err
		}
		kv, err := d.NewClient()
		if err != nil {
			return nil, err
		}
		e := &ffwdExec{batch: batch, pipe: pipe, kv: kv, defTTL: defTTL, pend: make([]int, 0, 256)}
		batch.OnDone(e.onDone)
		execs = append(execs, e)
	}
	return execs, nil
}

// ffwdExecSlots is the delegation-slot budget newFFWDExecs consumes,
// for sizing core.Config.MaxClients.
func ffwdExecSlots(n, window, pipeDepth int) int {
	return n * (window + 1 + pipeDepth)
}

// onDone maps one completed single back to its result slot. ret is the
// delegated function's raw return word; the op kind decodes it.
func (e *ffwdExec) onDone(seq int, ret uint64) {
	i := e.pend[seq]
	res := &e.curResults[i]
	switch e.curOps[i].Kind {
	case wireproto.OpGet:
		if ret == wireproto.MissValue {
			res.Status = wireproto.RespNotFound
		} else {
			res.Status, res.Val = wireproto.RespValue, ret
		}
	case wireproto.OpSet, wireproto.OpSetTTL:
		res.Status = wireproto.RespStored
	case wireproto.OpDel:
		res.Status = found(ret == 1, wireproto.RespDeleted)
	case wireproto.OpTouch:
		res.Status = found(ret == 1, wireproto.RespTouched)
	case wireproto.OpLen:
		res.Status, res.Val = wireproto.RespLen, ret
	}
}

func (e *ffwdExec) flushPend() {
	if len(e.pend) == 0 {
		return
	}
	e.batch.Flush()
	e.pend = e.pend[:0]
}

func (e *ffwdExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	e.curOps, e.curResults = ops, results
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case wireproto.OpGet:
			e.pend = append(e.pend, i)
			e.batch.Get(op.Key)
		case wireproto.OpSet:
			e.pend = append(e.pend, i)
			if e.defTTL > 0 {
				e.batch.SetTTL(op.Key, op.Val, e.defTTL)
			} else {
				e.batch.Set(op.Key, op.Val)
			}
		case wireproto.OpSetTTL:
			e.pend = append(e.pend, i)
			e.batch.SetTTL(op.Key, op.Val, op.TTL)
		case wireproto.OpTouch:
			e.pend = append(e.pend, i)
			e.batch.Touch(op.Key, op.TTL)
		case wireproto.OpDel:
			e.pend = append(e.pend, i)
			e.batch.Del(op.Key)
		case wireproto.OpLen:
			e.pend = append(e.pend, i)
			e.batch.Len()
		case wireproto.OpMGet:
			// Synchronous op: drain the async window first so a
			// pipelined set on this shard lands before the multi-get
			// reads.
			e.flushPend()
			e.pipe.MultiGet(op.Keys, results[i].Vals, e.found[:len(op.Keys)])
			for j := range op.Keys {
				if !e.found[j] {
					results[i].Vals[j] = wireproto.MissValue
				}
			}
			results[i].Status = wireproto.RespValues
		case wireproto.OpStats:
			e.flushPend()
			h, m, ev, exp := e.kv.Stats()
			results[i].Status = wireproto.RespStats
			results[i].Hits, results[i].Misses, results[i].Evictions, results[i].Expired = h, m, ev, exp
		}
	}
	e.flushPend()
	e.curOps, e.curResults = nil, nil
}
