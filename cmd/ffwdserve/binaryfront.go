package main

import (
	"log"
	"sync"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/wireproto"
)

// This file is the ffwd backend: one shared DelegatedKV, and executors
// that each own one delegation handle on it — a KVBatchClient window —
// so the store stays globally consistent while every executor pipelines
// independently. Everything an executor asks of the store goes through
// that window: singles, a multi-get as its keys' gets, the stats verb as
// four counter reads.

// ffwdWindow is how many requests each executor keeps in flight. Every
// registered slot is loaded on every sweep, busy or not, so the window
// times the pool size (defaultExecs) is a cost every request pays.
const ffwdWindow = 16

// ffwdExec executes batches against the delegated KV.
type ffwdExec struct {
	batch *apps.KVBatchClient

	// defTTL, when nonzero, turns plain OpSet into a TTL'd store (the
	// -default-ttl flag, in server clock ticks).
	defTTL uint64

	// pend maps the batch client's completion seq to the op (and, for a
	// multi-get or stats, the key or counter within it) of the
	// in-progress batch; curOps/curResults alias ExecBatch's arguments so
	// the completion callback is allocation-free.
	pend       []pendRef
	curOps     []frontend.Op
	curResults []frontend.Result
}

// pendRef names what one delegated request answers: op sub of results[op].
type pendRef struct{ op, sub int }

// newFFWDBackend builds the delegated store, supervises its server, and
// registers its stats: the delegation server's counters and the store's,
// which are read through a delegation slot of their own (a scrape is a
// request like any other).
func newFFWDBackend(o storeOpts, reg *obs.Registry) (*backend, error) {
	cfg := core.Config{
		MaxClients:    o.pools*o.execs*ffwdWindow + 1,
		IdleParkAfter: o.parkAfter,
	}
	if o.chaosSeed != 0 {
		inj := fault.FromSeed(o.chaosSeed)
		cfg.Hooks = inj
		log.Printf("ffwdserve: chaos injection on: %v", inj)
	}
	be := &backend{}
	if o.trace {
		be.sink = obs.NewTraceSink(obs.SinkConfig{Clients: cfg.MaxClients})
		cfg.Trace = be.sink
	}
	d := apps.NewDelegatedKVConfig(o.capacity, cfg)
	// Server-owned time: the delegation server's background hook samples
	// this source, advances the store clock, and drains due expiries
	// between request sweeps.
	d.SetTickSource(o.tick)
	// Every handle is taken before the server starts, so a failure leaves
	// nothing running.
	var err error
	be.pools, err = newPools(o, func() (frontend.Exec, error) {
		batch, err := d.NewBatchClient(ffwdWindow)
		if err != nil {
			return nil, err
		}
		e := &ffwdExec{batch: batch, defTTL: o.defTTL, pend: make([]pendRef, 0, 256)}
		batch.OnDone(e.onDone)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	sc, err := d.NewClient()
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	var mu sync.Mutex // scrapes may overlap; a delegation handle has one owner
	reg.Add("store stats", func() []obs.Row {
		mu.Lock()
		defer mu.Unlock()
		return apps.StoreRows(sc.Stats())
	})
	reg.Add("final stats", func() []obs.Row { return d.Server().Stats().Rows() })
	// Supervise the delegation server: restart it if it crashes
	// (mandatory under chaos injection, cheap insurance without).
	sv := core.NewSupervisor(d.Server(), supervisorCadence)
	sv.Start()
	be.stop = func() {
		sv.Stop()
		if p := d.Server().LastPanic(); p != nil {
			log.Printf("ffwdserve: last panic: %v", p)
		}
		d.Stop()
	}
	return be, nil
}

// supervisorCadence is how every ffwd-kind backend supervises its
// delegation server. It is gentler than the library default: a rescue
// kick wakes the parked server and costs a full idle-ladder climb, so one
// per 100ms keeps an idle ffwdserve near zero CPU while still repairing a
// crash within 5ms and a lost wake within 100ms.
var supervisorCadence = core.SupervisorConfig{Interval: 5 * time.Millisecond, KickAfter: 20}

// onDone maps one completed request back to its result. ret is the
// delegated function's raw return word; the op kind decodes it.
func (e *ffwdExec) onDone(seq int, ret uint64) {
	p := e.pend[seq]
	res := &e.curResults[p.op]
	switch e.curOps[p.op].Kind {
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
	case wireproto.OpMGet:
		res.Vals[p.sub] = ret // a miss is already wireproto.MissValue
	case wireproto.OpStats:
		// KVBatchClient.Stats completes in this order.
		*[...]*uint64{&res.Hits, &res.Misses, &res.Evictions, &res.Expired}[p.sub] = ret
	}
}

// ref records that the next request submitted answers op i, part sub.
func (e *ffwdExec) ref(i, sub int) { e.pend = append(e.pend, pendRef{i, sub}) }

func (e *ffwdExec) flush() {
	if len(e.pend) > 0 {
		e.batch.Flush()
		e.pend = e.pend[:0]
	}
}

func (e *ffwdExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	e.curOps, e.curResults = ops, results
	for i := range ops {
		op := &ops[i]
		// A multi-get or stats is fenced by a flush on both sides: it
		// reads after every single submitted before it has applied (a
		// pipelined set lands before the multi-get that follows it) and
		// before any submitted after.
		wide := op.Kind == wireproto.OpMGet || op.Kind == wireproto.OpStats
		if wide {
			e.flush()
		}
		switch op.Kind {
		case wireproto.OpGet:
			e.ref(i, 0)
			e.batch.Get(op.Key)
		case wireproto.OpSet:
			e.ref(i, 0)
			if e.defTTL > 0 {
				e.batch.SetTTL(op.Key, op.Val, e.defTTL)
			} else {
				e.batch.Set(op.Key, op.Val)
			}
		case wireproto.OpSetTTL:
			e.ref(i, 0)
			e.batch.SetTTL(op.Key, op.Val, op.TTL)
		case wireproto.OpTouch:
			e.ref(i, 0)
			e.batch.Touch(op.Key, op.TTL)
		case wireproto.OpDel:
			e.ref(i, 0)
			e.batch.Del(op.Key)
		case wireproto.OpLen:
			e.ref(i, 0)
			e.batch.Len()
		case wireproto.OpMGet:
			for j, k := range op.Keys {
				e.ref(i, j)
				e.batch.Get(k)
			}
			results[i].Status = wireproto.RespValues
		case wireproto.OpStats:
			for j := 0; j < 4; j++ {
				e.ref(i, j)
			}
			e.batch.Stats()
			results[i].Status = wireproto.RespStats
		}
		if wide {
			e.flush()
		}
	}
	e.flush()
	e.curOps, e.curResults = nil, nil
}
