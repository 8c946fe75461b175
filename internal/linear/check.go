package linear

import "sort"

// Check reports whether history h is linearizable under model m: whether
// some total order of the operations, consistent with every operation's
// real-time interval, is accepted by the sequential specification.
// Completed operations must all be linearized with matching outputs;
// pending operations may take effect at any point after their call or
// never.
func Check(m Model, h []Op) bool { return FailingPartition(m, h) < 0 }

// CheckSessions is Check for histories whose clients are sessions that
// pipeline: a session (Op.Client) invokes its next operation before the
// last one returned, so real time alone leaves their order open. The
// linearization must also keep every session's program order — an
// operation takes effect after each operation its session invoked before
// it. That is core.AsyncGroup's ordering contract, and what a connection
// that reads its own pipelined writes relies on.
func CheckSessions(m Model, h []Op) bool { return failingPartition(m, h, true) < 0 }

// FailingPartition is Check with a diagnosis: it returns the index of
// the first subhistory (per m.Partition; the whole history is partition
// 0 when m.Partition is nil) that admits no linearization, or -1 if the
// history is linearizable.
func FailingPartition(m Model, h []Op) int { return failingPartition(m, h, false) }

func failingPartition(m Model, h []Op, sessions bool) int {
	parts := [][]Op{h}
	if m.Partition != nil {
		parts = m.Partition(h)
	}
	for i, part := range parts {
		if !checkOne(m, part, sessions) {
			return i
		}
	}
	return -1
}

// checker holds one WGL search: the subhistory, the linearized-set
// bitmask, and the memoized set of (mask, state) configurations already
// proven dead.
type checker struct {
	m    Model
	ops  []Op
	mask []uint64
	dead map[string]struct{}
	key  []byte // scratch for memo keys
	// prev[i] is the op its session invoked just before op i (-1: none),
	// which must linearize first; nil when sessions are not ordered.
	prev []int
}

// checkOne runs the WGL search over one subhistory.
func checkOne(m Model, ops []Op, sessions bool) bool {
	// Sorting by call time makes candidate scans hit minimal ops early, and
	// puts each session's ops in the order it invoked them (prev below).
	sorted := make([]Op, len(ops))
	copy(sorted, ops)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Call < sorted[j].Call })
	remaining := 0
	for i := range sorted {
		if !sorted[i].Pending {
			remaining++
		}
	}
	c := &checker{
		m:    m,
		ops:  sorted,
		mask: make([]uint64, (len(sorted)+63)/64),
		dead: make(map[string]struct{}),
	}
	if sessions {
		c.prev = make([]int, len(sorted))
		last := make(map[int]int)
		for i := range sorted {
			if p, ok := last[sorted[i].Client]; ok {
				c.prev[i] = p
			} else {
				c.prev[i] = -1
			}
			last[sorted[i].Client] = i
		}
	}
	return c.dfs(m.Init(), remaining)
}

func (c *checker) taken(i int) bool { return c.mask[i/64]&(1<<uint(i%64)) != 0 }
func (c *checker) take(i int)       { c.mask[i/64] |= 1 << uint(i%64) }
func (c *checker) untake(i int)     { c.mask[i/64] &^= 1 << uint(i%64) }

// memoKey encodes (mask, state) as one string.
func (c *checker) memoKey(state []byte) string {
	c.key = c.key[:0]
	for _, w := range c.mask {
		c.key = append(c.key,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	c.key = append(c.key, 0xff)
	c.key = append(c.key, state...)
	return string(c.key)
}

// dfs searches for a linearization of the remaining operations from
// state. remaining counts unlinearized completed ops; pending ops left
// over at the end are legal (they simply never took effect).
func (c *checker) dfs(state []byte, remaining int) bool {
	if remaining == 0 {
		return true
	}
	key := c.memoKey(state)
	if _, seen := c.dead[key]; seen {
		return false
	}
	// minRet is the earliest return among remaining completed ops: an op
	// can linearize first iff it was called before every other remaining
	// op returned, i.e. iff its call precedes minRet (ties cannot occur —
	// the logical clock is strictly increasing — and an op's own return
	// never excludes it, since Call < Ret).
	minRet := int64(1<<63 - 1)
	for i := range c.ops {
		if !c.taken(i) && !c.ops[i].Pending && c.ops[i].Ret < minRet {
			minRet = c.ops[i].Ret
		}
	}
	for i := range c.ops {
		op := &c.ops[i]
		if c.taken(i) || op.Call > minRet || (c.prev != nil && c.prev[i] >= 0 && !c.taken(c.prev[i])) {
			continue
		}
		next, ok := c.m.Step(state, op)
		if !ok {
			continue
		}
		rem := remaining
		if !op.Pending {
			rem--
		}
		c.take(i)
		if c.dfs(next, rem) {
			return true
		}
		c.untake(i)
	}
	c.dead[key] = struct{}{}
	return false
}
