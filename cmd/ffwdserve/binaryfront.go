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
// that each own one plain delegation handle on it. A decoded batch is one
// delegated call: the executor points its ops/results fields at the
// batch and delegates its own index to the batch function, which applies
// every op in order on the server goroutine, directly on the store. The
// request line's releasing header store orders the executor's buffer
// writes ahead of the server's reads, and the response toggle orders the
// server's result writes ahead of the executor's, so the two cache-line
// transfers of a delegated call are paid once per batch, not once per op.
// A batch is one request with one sequence number, so a crash replay is
// answered from the server's ledger, with the first execution's results
// already in the buffer: exactly-once needs nothing more.

// ffwdExec executes batches against the delegated KV.
type ffwdExec struct {
	c   *core.Client
	fid core.FuncID // the batch function
	idx uint64      // this executor's index in the batch function's table

	// defTTL, when nonzero, turns plain OpSet into a TTL'd store (the
	// -default-ttl flag, in server clock ticks).
	defTTL uint64

	// ops/results alias ExecBatch's arguments for the one delegated
	// call that applies them.
	ops     []frontend.Op
	results []frontend.Result
}

// newFFWDBackend builds the delegated store, supervises its server, and
// registers its stats: the delegation server's counters and the store's,
// which are read through a delegation slot of their own (a scrape is a
// request like any other).
func newFFWDBackend(o storeOpts, reg *obs.Registry) (*backend, error) {
	cfg := core.Config{
		MaxClients:    o.pools*o.execs + 1,
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
	if be.pools, err = newFFWDPools(d, o); err != nil {
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

// newFFWDPools registers the batch function on d's server and builds
// o.pools pools of o.execs executors on it, one delegation slot each. It
// must run before d starts.
func newFFWDPools(d *apps.DelegatedKV, o storeOpts) ([][]frontend.Exec, error) {
	var execs []*ffwdExec
	st := d.Store()
	fid := d.Server().Register(func(a *[core.MaxArgs]uint64) uint64 {
		e := execs[a[0]]
		for i := range e.ops {
			apply(st, e.defTTL, &e.ops[i], &e.results[i])
		}
		return 0
	})
	return newPools(o, func() (frontend.Exec, error) {
		c, err := d.Server().NewClient()
		if err != nil {
			return nil, err
		}
		e := &ffwdExec{c: c, fid: fid, idx: uint64(len(execs)), defTTL: o.defTTL}
		execs = append(execs, e)
		return e, nil
	})
}

// supervisorCadence is how every ffwd-kind backend supervises its
// delegation server. It is gentler than the library default: a rescue
// kick wakes the parked server and costs a full idle-ladder climb, so one
// per 100ms keeps an idle ffwdserve near zero CPU while still repairing a
// crash within 5ms and a lost wake within 100ms.
var supervisorCadence = core.SupervisorConfig{Interval: 5 * time.Millisecond, KickAfter: 20}

// ExecBatch runs the whole batch as one delegated call. The call answers
// the all-ones sentinel only when it panicked before any op ran (an
// injected fault), and then every op is answered as an internal error.
func (e *ffwdExec) ExecBatch(ops []frontend.Op, results []frontend.Result) {
	e.ops, e.results = ops, results
	if e.c.Delegate1(e.fid, e.idx) == ^uint64(0) {
		for i := range results {
			results[i].Status, results[i].Code = wireproto.RespError, wireproto.CodeInternal
		}
	}
	e.ops, e.results = nil, nil
}

// apply answers one op of a batch on s, by whichever goroutine owns s
// for the op: the ffwd server goroutine, or a mutex executor holding the
// lock. defTTL, when nonzero, turns plain OpSet into a TTL'd store. A
// panic answers that op alone as an internal error, so the ops after it
// still run.
func apply(s *apps.KVStore, defTTL uint64, op *frontend.Op, res *frontend.Result) {
	defer func() {
		if recover() != nil {
			res.Status, res.Code = wireproto.RespError, wireproto.CodeInternal
		}
	}()
	switch op.Kind {
	case wireproto.OpGet:
		if v, ok := s.Get(op.Key); ok {
			res.Status, res.Val = wireproto.RespValue, v
		} else {
			res.Status = wireproto.RespNotFound
		}
	case wireproto.OpSet:
		if defTTL > 0 {
			s.SetTTL(op.Key, op.Val, s.Clock(), defTTL)
		} else {
			s.Set(op.Key, op.Val)
		}
		res.Status = wireproto.RespStored
	case wireproto.OpSetTTL:
		s.SetTTL(op.Key, op.Val, s.Clock(), op.TTL)
		res.Status = wireproto.RespStored
	case wireproto.OpTouch:
		res.Status = found(s.Touch(op.Key, s.Clock(), op.TTL), wireproto.RespTouched)
	case wireproto.OpDel:
		res.Status = found(s.Delete(op.Key), wireproto.RespDeleted)
	case wireproto.OpLen:
		res.Status, res.Val = wireproto.RespLen, uint64(s.Len())
	case wireproto.OpMGet:
		for j, k := range op.Keys {
			if v, ok := s.Get(k); ok {
				res.Vals[j] = v
			} else {
				res.Vals[j] = wireproto.MissValue
			}
		}
		res.Status = wireproto.RespValues
	case wireproto.OpStats:
		res.Status = wireproto.RespStats
		res.Hits, res.Misses, res.Evictions = s.Stats()
		res.Expired = s.Expired()
	}
}
