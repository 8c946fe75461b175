package main

import (
	"runtime"
	"sync"

	"ffwd/internal/apps"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/wireproto"
)

// This file is the protocol-independent core of ffwdserve. Every store
// configuration is a frontend.Exec — typed Op batches in, typed Result
// batches out — and that is all internal/frontend knows of a store: one
// frontend.Server per served protocol runs batches on these executors,
// whichever codec decoded them. The mutex exec is here; the ffwd exec is
// in binaryfront.go and the replicated one in replicated.go.

// backend is what every store configuration builds for main: the
// executor pools its servers run on, and what to do with the store at
// shutdown. Its builders register the store's stats rows as they go.
type backend struct {
	// pools holds one executor pool per served protocol, built alike.
	pools [][]frontend.Exec
	// groupStats, when set, answers the text stats verb in place of an
	// executor (see frontend.Text.Stats).
	groupStats func() string
	// sink is the delegation lifecycle trace, when one is captured.
	sink *obs.TraceSink
	// stop shuts the store down, after the last executor has returned.
	stop func()
}

// storeOpts is what the flags ask of a backend builder.
type storeOpts struct {
	capacity  int           // -capacity
	execs     int           // executors per pool (-clients, or defaultExecs)
	pools     int           // served protocols, one executor pool each
	defTTL    uint64        // -default-ttl in ticks
	tick      func() uint64 // server time, one tick per millisecond
	parkAfter int           // -idle-park-after
	chaosSeed uint64        // -chaos-seed
	trace     bool          // capture the delegation lifecycle trace
}

// defaultExecs sizes each served protocol's executor pool from what can
// run at once. An ffwd or mutex executor never blocks, so one per P
// keeps every P busy; more would only cost, since the delegation server
// sweeps every executor's slot on every pass, idle or not. A
// replicated executor waits out a quorum round, and one blocked executor
// serialises the leader, so that pool stays wide.
func defaultExecs(replicated bool) int {
	if replicated {
		return 64
	}
	return runtime.GOMAXPROCS(0)
}

// newPools builds o.pools pools of o.execs executors each with mk.
func newPools(o storeOpts, mk func() (frontend.Exec, error)) ([][]frontend.Exec, error) {
	pools := make([][]frontend.Exec, o.pools)
	for i := range pools {
		for range o.execs {
			e, err := mk()
			if err != nil {
				return nil, err
			}
			pools[i] = append(pools[i], e)
		}
	}
	return pools, nil
}

// found picks the response type of an op that either hit its key or did
// not.
func found(ok bool, hit uint8) uint8 {
	if ok {
		return hit
	}
	return wireproto.RespNotFound
}

// mutexExec is the global-lock baseline behind either protocol: every
// executor funnels into the one LockedKV, so an A/B against -backend
// mutex measures the frontend and the lock separately. It runs a batch
// one op at a time, each complete before the next starts.
type mutexExec struct {
	kv *apps.LockedKV
	// tick supplies the logical clock: the executor advances the store
	// clock (sweeping due entries inline) because no server goroutine
	// owns the lock-based store's time.
	tick func() uint64
	// defTTL mirrors ffwdExec.defTTL for plain OpSet.
	defTTL uint64
}

// newMutexBackend builds the global-lock store and registers its stats.
func newMutexBackend(o storeOpts, reg *obs.Registry) *backend {
	kv := apps.NewLockedKV(o.capacity, func() sync.Locker { return &sync.Mutex{} })
	reg.Add("store stats", func() []obs.Row { return apps.StoreRows(kv.Stats()) })
	pools, _ := newPools(o, func() (frontend.Exec, error) { return &mutexExec{kv: kv, tick: o.tick, defTTL: o.defTTL}, nil })
	return &backend{pools: pools, stop: func() {}}
}

func (e *mutexExec) now() uint64 { return e.kv.AdvanceClock(e.tick()) }

// get reads key, advancing the clock first: without that a pure-read
// workload never moves time forward and TTL'd entries read back forever
// (GetAt does both under one lock acquisition).
func (e *mutexExec) get(k uint64) (uint64, bool) { return e.kv.GetAt(k, e.tick()) }

func (e *mutexExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	for i := range ops {
		op, res := &ops[i], &results[i]
		switch op.Kind {
		case wireproto.OpGet:
			if v, ok := e.get(op.Key); ok {
				res.Status, res.Val = wireproto.RespValue, v
			} else {
				res.Status = wireproto.RespNotFound
			}
		case wireproto.OpSet:
			if e.defTTL > 0 {
				e.kv.SetTTL(op.Key, op.Val, e.now(), e.defTTL)
			} else {
				e.kv.Set(op.Key, op.Val)
			}
			res.Status = wireproto.RespStored
		case wireproto.OpSetTTL:
			e.kv.SetTTL(op.Key, op.Val, e.now(), op.TTL)
			res.Status = wireproto.RespStored
		case wireproto.OpTouch:
			res.Status = found(e.kv.Touch(op.Key, e.now(), op.TTL), wireproto.RespTouched)
		case wireproto.OpDel:
			res.Status = found(e.kv.Delete(op.Key), wireproto.RespDeleted)
		case wireproto.OpMGet:
			for j, k := range op.Keys {
				if v, ok := e.get(k); ok {
					res.Vals[j] = v
				} else {
					res.Vals[j] = wireproto.MissValue
				}
			}
			res.Status = wireproto.RespValues
		case wireproto.OpLen:
			res.Status, res.Val = wireproto.RespLen, uint64(e.kv.Len())
		case wireproto.OpStats:
			res.Status = wireproto.RespStats
			res.Hits, res.Misses, res.Evictions, res.Expired = e.kv.Stats()
		}
	}
}
