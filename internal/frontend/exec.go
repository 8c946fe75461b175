package frontend

import (
	"slices"
	"time"

	"ffwd/internal/wireproto"
)

// Op is one request handed to an Exec. Kind is a wireproto op constant.
// For OpMGet, Keys holds the key list and Key/Val are zero; for the
// single-key ops, Key/Val carry the operands. TTL is the relative
// expiry for OpSetTTL/OpTouch (ticks from the server clock at apply;
// 0 = no expiry) and zero for every other op.
type Op struct {
	Kind uint8
	Key  uint64
	Val  uint64
	TTL  uint64
	Keys []uint64
}

// Result is the executor's answer to the Op at the same index. Status
// is a wireproto response type; leaving it zero is an executor bug and
// encodes as RespError/CodeInternal. For OpMGet, Vals arrives pre-sized
// to len(Keys) with caller-owned backing — the exec fills values in
// place, writing wireproto.MissValue for absent keys, and must not
// retain the slice past the call.
type Result struct {
	Status uint8
	Val    uint64
	Code   uint16

	Hits, Misses, Evictions, Expired uint64 // RespStats

	Vals []uint64
}

// Exec executes one batch of decoded requests: ops[i] answers into
// results[i]. A connection borrows an executor from the pool for one
// batch and returns it after, so an Exec runs one batch at a time and
// needs no internal synchronization; it is free to hand the whole batch
// to a delegation server as one call.
type Exec interface {
	ExecBatch(ops []Op, results []Result)
}

// Results the server answers with itself: shed for a batch no executor
// ran (the pool stayed empty past ShedTimeout), whose Code tells it from
// an executor's own RespBusy for a codec that words the two differently;
// reservedValue for a set of wireproto.MissValue.
const codeShed = 1

var (
	shed          = Result{Status: wireproto.RespBusy, Code: codeShed}
	reservedValue = Result{Status: wireproto.RespError, Code: wireproto.CodeValueReserved}
)

// task is one request of a connection's batch, in arrival order. An
// OpNop task is a reply decode already knew, riding the batch in
// position: the next val bytes of batch.pre. An OpMGet task's keys are
// the next nkeys of batch.keys.
type task struct {
	op    uint8
	flags uint8
	nkeys uint8
	id    uint64
	key   uint64
	val   uint64
	ttl   uint64
}

// batch is a connection's requests on their way to reply bytes: its
// reader fills it from what one Read decoded, then runs the ops as a
// single Exec batch on a borrowed executor and encodes every reply in
// request order. Everything in it is reused from batch to batch.
type batch struct {
	tasks      []task
	pre        []byte
	keys, vals []uint64 // the batch's mget keys, and the values that answer them
	ops        []Op
	results    []Result
}

// add appends a decoded request to c's batch.
func (c *conn) add(r *Request) {
	t := task{op: r.Op, flags: r.Flags, id: r.ID, key: r.Key, val: r.Val, ttl: r.TTL}
	if r.Op == wireproto.OpMGet {
		t.nkeys = uint8(len(r.Keys))
		c.keys = append(c.keys, r.Keys...)
	}
	c.tasks = append(c.tasks, t)
}

// process runs c's batch, writes every reply in request order and
// flushes them with one write.
func (c *conn) process() {
	if len(c.tasks) == 0 {
		return
	}
	s := c.srv
	c.ops, c.results = c.ops[:0], c.results[:0]
	c.vals = slices.Grow(c.vals[:0], len(c.keys))[:len(c.keys)]
	k := 0
	for i := range c.tasks {
		t := &c.tasks[i]
		if t.op == wireproto.OpNop {
			continue
		}
		op, res := Op{Kind: t.op, Key: t.key, Val: t.val, TTL: t.ttl}, Result{}
		if t.op == wireproto.OpMGet {
			n := int(t.nkeys)
			op.Keys, res.Vals = c.keys[k:k+n], c.vals[k:k+n]
			k += n
		}
		c.ops, c.results = append(c.ops, op), append(c.results, res)
	}
	ran := len(c.ops) == 0 || s.run(c.ops, c.results)

	n, pre := 0, c.pre
	for i := range c.tasks {
		t := &c.tasks[i]
		switch {
		case t.op == wireproto.OpNop:
			c.wbuf, pre = append(c.wbuf, pre[:t.val]...), pre[t.val:]
		case !ran:
			c.wbuf = s.cfg.Codec.Append(c.wbuf, t.id, t.flags, &shed)
		default:
			c.wbuf = s.cfg.Codec.Append(c.wbuf, t.id, t.flags, &c.results[n])
			n++
		}
	}
	c.flush()
	c.tasks, c.pre, c.keys = c.tasks[:0], c.pre[:0], c.keys[:0]
}

// run executes ops on an executor borrowed from the pool for the call,
// and reports false when none could be had.
func (s *Server) run(ops []Op, results []Result) bool {
	exec := s.borrow()
	if exec == nil {
		s.met.QueueSheds.Add(uint64(len(ops)))
		return false
	}
	exec.ExecBatch(ops, results)
	s.pool <- exec
	s.met.observeBatch(len(ops))
	return true
}

// borrow takes an executor from the pool for one batch, or returns nil
// once ShedTimeout passes with the pool still empty (0 = wait forever).
// Delegation handles are a bounded resource, hence a fixed channel and
// not a sync.Pool, which may drop what it is given.
func (s *Server) borrow() Exec {
	select {
	case e := <-s.pool:
		return e
	default:
	}
	if s.cfg.ShedTimeout <= 0 {
		return <-s.pool
	}
	t := time.NewTimer(s.cfg.ShedTimeout)
	defer t.Stop()
	select {
	case e := <-s.pool:
		return e
	case <-t.C:
		return nil
	}
}
