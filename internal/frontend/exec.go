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
// results[i]. One goroutine per shard calls it, so implementations need
// no internal synchronization and are free to pipeline the whole batch
// through a delegation window before completing any of it.
type Exec interface {
	ExecBatch(ops []Op, results []Result)
}

// Results the server answers with itself: shed for a request no executor
// ran (its shard queue was full, or the pool stayed empty past
// ShedTimeout), whose Code tells it from an executor's own RespBusy for a
// codec that words the two differently; reservedValue for a set of
// wireproto.MissValue.
const codeShed = 1

var (
	shed          = Result{Status: wireproto.RespBusy, Code: codeShed}
	reservedValue = Result{Status: wireproto.RespError, Code: wireproto.CodeValueReserved}
)

// task is one request on its way through a batch. It travels by value
// (through the shard channel, for an unordered codec); mg cycles through
// the server's buffer pool. An OpNop task is a reply decode already knew,
// riding an ordered connection's batch in position: the next val bytes of
// batch.pre.
type task struct {
	c     *conn
	op    uint8
	flags uint8
	id    uint64
	key   uint64
	val   uint64
	ttl   uint64
	mg    *mgetBuf
}

// mgetBuf carries an mget's keys to the executor and its values back
// without allocating; buffers cycle through Server.mgFree.
type mgetBuf struct {
	n          int
	keys, vals [wireproto.MGetMax]uint64
}

func (s *Server) newTask(c *conn, r *Request) task {
	t := task{c: c, op: r.Op, flags: r.Flags, id: r.ID, key: r.Key, val: r.Val, ttl: r.TTL}
	if r.Op == wireproto.OpMGet {
		select {
		case t.mg = <-s.mgFree:
		default:
			t.mg = new(mgetBuf)
		}
		t.mg.n = copy(t.mg.keys[:], r.Keys)
	}
	return t
}

// putMG recycles a task's mget buffer, if it has one.
func (s *Server) putMG(mg *mgetBuf) {
	if mg == nil {
		return
	}
	select {
	case s.mgFree <- mg:
	default:
	}
}

// batch is the one path from requests to reply bytes, for either codec:
// run the tasks' ops as a single Exec batch, encode every reply in task
// order, flush each touched connection exactly once. A shard's batch has
// its own executor and is filled from the queue; an ordered connection's
// is filled by its reader and borrows an executor per run.
type batch struct {
	s    *Server
	exec Exec // nil: borrowed from s.pool

	tasks   []task
	pre     []byte
	ops     []Op
	results []Result
	touched []*conn
}

func (b *batch) process() {
	if len(b.tasks) == 0 {
		return
	}
	b.ops, b.results = b.ops[:0], b.results[:0]
	for i := range b.tasks {
		t := &b.tasks[i]
		if t.op == wireproto.OpNop {
			continue
		}
		op, res := Op{Kind: t.op, Key: t.key, Val: t.val, TTL: t.ttl}, Result{}
		if t.mg != nil {
			op.Keys, res.Vals = t.mg.keys[:t.mg.n], t.mg.vals[:t.mg.n]
		}
		b.ops, b.results = append(b.ops, op), append(b.results, res)
	}
	ran := len(b.ops) == 0 || b.run()

	b.touched = b.touched[:0]
	n, pre := 0, b.pre
	for i := range b.tasks {
		t := &b.tasks[i]
		c := t.c
		t.c = nil
		c.wmu.Lock()
		switch {
		case t.op == wireproto.OpNop:
			c.wbuf, pre = append(c.wbuf, pre[:t.val]...), pre[t.val:]
		case !ran:
			c.wbuf = b.s.cfg.Codec.Append(c.wbuf, t.id, t.flags, &shed)
		default:
			c.wbuf = b.s.cfg.Codec.Append(c.wbuf, t.id, t.flags, &b.results[n])
			n++
		}
		c.wmu.Unlock()
		b.s.putMG(t.mg)
		t.mg = nil
		if !slices.Contains(b.touched, c) {
			b.touched = append(b.touched, c)
		}
	}
	for i, c := range b.touched {
		c.flush()
		b.touched[i] = nil
	}
	b.tasks, b.pre = b.tasks[:0], b.pre[:0]
}

// run executes b.ops on the batch's executor, or on one borrowed from the
// pool for the call, and reports false when none could be had.
func (b *batch) run() bool {
	exec := b.exec
	if exec == nil {
		if exec = b.s.borrow(); exec == nil {
			b.s.met.QueueSheds.Add(uint64(len(b.ops)))
			return false
		}
	}
	exec.ExecBatch(b.ops, b.results)
	b.s.met.observeBatch(len(b.ops))
	if b.exec == nil {
		b.s.pool <- exec
	}
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

// shard is one queue executor of an unordered codec: drain up to MaxBatch
// queued tasks, process them as one batch.
type shard struct {
	batch
	q chan task
}

func newShard(s *Server, e Exec, depth, maxBatch int) *shard {
	return &shard{
		batch: batch{s: s, exec: e, tasks: make([]task, 0, maxBatch), ops: make([]Op, 0, maxBatch),
			results: make([]Result, 0, maxBatch), touched: make([]*conn, 0, maxBatch)},
		q: make(chan task, depth),
	}
}

func (sh *shard) run() {
	defer sh.s.execWG.Done()
	for t := range sh.q {
		sh.tasks = append(sh.tasks, t)
	drain:
		for len(sh.tasks) < sh.s.cfg.MaxBatch {
			select {
			case t2, ok := <-sh.q:
				if !ok {
					break drain
				}
				sh.tasks = append(sh.tasks, t2)
			default:
				break drain
			}
		}
		sh.process()
	}
}
