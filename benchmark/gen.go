package main

// This file is the load model: the six workloads, the seeded op stream
// each connection draws from, and the correctness oracle every reply is
// checked against. The serving side only ever sees the generated ops.

// opKind is one generated operation type.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opSetTTL
	opTouch
)

// op is one generated request. val is filled at issue time by the
// oracle (key<<versionBits | version), so a reply names the write it
// observed.
type op struct {
	kind opKind
	key  uint64
	val  uint64
	ttl  uint64
}

// replyStatus is what a serving path answered, reduced to what the
// oracle needs.
type replyStatus uint8

const (
	stValue   replyStatus = iota // GET hit, val holds the value
	stMiss                       // GET or TOUCH on an absent key
	stStored                     // SET / SETTTL acknowledged
	stTouched                    // TOUCH refreshed a live key
	stFail                       // ERROR, BUSY, or an unparseable reply
)

type reply struct {
	status replyStatus
	val    uint64
}

// mix is the op mix in percent; the remainder after get+setTTL+touch is
// plain SET.
type mix struct {
	get, setTTL, touch int
}

// target names how a workload reaches the store.
type target uint8

const (
	targetLib     target = iota // in-process apps.DelegatedKV
	targetBinary                // ffwdserve -proto binary over loopback
	targetText                  // ffwdserve -proto text over loopback
	targetDurable               // WAL-backed leader + follower processes, text protocol
)

// workload is one named traffic mix. Every load is closed loop: a
// connection issues its next request only when a reply frees a window
// slot.
type workload struct {
	name string
	tgt  target

	conns    int  // generator goroutines = connections (≤ nproc on the sizing host)
	window   int  // requests in flight per connection
	lockstep bool // refill the window only once it has fully drained (bursts)

	mix      mix
	keys     uint64 // uniform key space, partitioned across connections
	capacity int    // store capacity in entries
	preload  int    // keys written (and acknowledged) during set-up
	ttl      uint64 // relative TTL of SETTTL/TOUCH, in store ticks
	missOK   bool   // a GET miss is legal (evicting or expiring workloads)

	// depth is the number of service times one op's issue→reply latency
	// spans on the serial path: the window for a sliding window, and
	// conns·(burst+1)/2 for lock-step bursts. The reconciliation
	// multiplies per-op layer costs by it.
	depth float64
}

const (
	fitKeys     = 4096
	fitCapacity = 1 << 16
)

var workloads = []workload{
	{
		name: "lib-sync",
		tgt:  targetLib, conns: 1, window: 1,
		mix: mix{get: 90}, keys: fitKeys, capacity: fitCapacity, preload: fitKeys, depth: 1,
	},
	{
		name: "lib-pipelined-churn",
		tgt:  targetLib, conns: 1, window: 16,
		mix: mix{get: 40, setTTL: 20, touch: 10}, keys: 4 * fitCapacity, capacity: fitCapacity,
		preload: fitCapacity, ttl: 50, missOK: true, depth: 16,
	},
	{
		name: "serve-binary-sat",
		tgt:  targetBinary, conns: 1, window: 64,
		mix: mix{get: 90}, keys: fitKeys, capacity: fitCapacity, preload: fitKeys, depth: 64,
	},
	{
		name: "serve-binary-unloaded",
		tgt:  targetBinary, conns: 1, window: 1,
		mix: mix{get: 90}, keys: fitKeys, capacity: fitCapacity, preload: fitKeys, depth: 1,
	},
	{
		name: "serve-text-sat",
		tgt:  targetText, conns: 1, window: 64,
		mix: mix{get: 90}, keys: fitKeys, capacity: fitCapacity, preload: fitKeys, depth: 64,
	},
	{
		name: "serve-durable-write",
		tgt:  targetDurable, conns: 2, window: 8, lockstep: true,
		mix: mix{}, keys: fitKeys, capacity: fitCapacity, preload: fitKeys, depth: 16,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// xorshift is the per-connection PRNG: the same (seed, connection) pair
// always yields the same op stream.
type xorshift uint64

func newXorshift(seed uint64, conn int) xorshift {
	x := xorshift(seed*0x9E3779B97F4A7C15 + uint64(conn+1)*0xBF58476D1CE4E5B9)
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	for i := 0; i < 4; i++ {
		x.next()
	}
	return x
}

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// opSource yields a connection's requests; ok=false ends the stream.
type opSource interface {
	next() (o op, ok bool)
}

// stream is the measured op stream of one connection: keys from the
// connection's own partition (key ≡ conn mod conns, so every key has a
// single writer) and one r%100 draw split get | setTTL | touch | set.
//
// Reads and touches draw their key uniformly. Value-writing ops instead
// walk a seed-chosen full-cycle permutation of the partition (an LCG
// modulo its power-of-two size), which covers the keys just as evenly
// but never has two writes to one key in flight together: the pipelined
// serving paths do not order same-key writes at GOMAXPROCS > 1 today
// (ROADMAP item 1b — uniform write keys drew 97 stale reads in 1.4 M ops
// from serve-binary-sat), and a benchmark workload must be one on which
// no operation fails. The oracle still rejects the reordering if a
// stream ever provokes it.
type stream struct {
	rng   xorshift
	m     mix
	conn  uint64
	conns uint64
	span  uint64 // keys per connection, a power of two
	ttl   uint64

	walk, mul, inc uint64 // write-key LCG: walk = walk*mul + inc mod span
}

func newStream(w *workload, seed uint64, conn int) *stream {
	s := &stream{
		rng:   newXorshift(seed, conn),
		m:     w.mix,
		conn:  uint64(conn),
		conns: uint64(w.conns),
		span:  w.keys / uint64(w.conns),
		ttl:   w.ttl,
	}
	if s.span&(s.span-1) != 0 {
		panic("benchmark: keys per connection must be a power of two")
	}
	// Full period modulo 2^k needs mul ≡ 1 (mod 4) and inc odd.
	s.walk = s.rng.next() % s.span
	s.mul = s.rng.next()&^3 | 1
	s.inc = s.rng.next() | 1
	return s
}

func (s *stream) next() (op, bool) {
	r := s.rng.next()
	o := op{key: (r>>32)%s.span*s.conns + s.conn}
	c := int(r % 100)
	switch {
	case c < s.m.get:
		o.kind = opGet
	case c < s.m.get+s.m.setTTL:
		o.kind, o.ttl = opSetTTL, s.ttl
	case c < s.m.get+s.m.setTTL+s.m.touch:
		o.kind, o.ttl = opTouch, s.ttl
	default:
		o.kind = opSet
	}
	if o.kind == opSet || o.kind == opSetTTL {
		s.walk = (s.walk*s.mul + s.inc) % s.span
		o.key = s.walk*s.conns + s.conn
	}
	return o, true
}

// preloadSource writes the first n keys of a connection's partition
// once, in order.
type preloadSource struct {
	conn, conns uint64
	i, n        uint64
}

func newPreload(w *workload, conn int) *preloadSource {
	return &preloadSource{conn: uint64(conn), conns: uint64(w.conns), n: uint64(w.preload / w.conns)}
}

func (p *preloadSource) next() (op, bool) {
	if p.i >= p.n {
		return op{}, false
	}
	o := op{kind: opSet, key: p.i*p.conns + p.conn}
	p.i++
	return o, true
}

// versionBits is the width of the per-key version carried in the low
// bits of every value. A run issues a few thousand versions per key at
// most, far below 2^20.
const versionBits = 20

const versionMask = 1<<versionBits - 1

// oracle checks replies against the writes this generator issued. For
// every key it tracks the highest version issued and the highest
// version acknowledged. A GET issued after SET v was acknowledged must
// return a version ≥ v and never one not yet issued; that holds under
// any reordering of pipelined requests, so it does not pre-judge what
// order a pipeline may resolve in. Keys are partitioned by connection,
// so one oracle belongs to one goroutine and needs no synchronization.
type oracle struct {
	issued     []uint32
	acked      []uint32
	missOK     bool
	violations uint64
}

func newOracle(keys uint64, missOK bool) *oracle {
	return &oracle{issued: make([]uint32, keys), acked: make([]uint32, keys), missOK: missOK}
}

// inflight is what the generator remembers about one outstanding
// request: enough to time it and to check its reply.
type inflight struct {
	kind  opKind
	key   uint64
	ver   uint32 // version written (SET/SETTTL) or acknowledged floor at issue (GET)
	t0    int64  // issue time, ns since process start; 0 = latency not sampled
	seq   uint32 // binary request-id guard
	inUse bool
}

// issue stamps o for sending: writes get the key's next version, reads
// capture the acknowledged floor they must not fall below.
func (o *oracle) issue(p *op, f *inflight) {
	f.kind, f.key = p.kind, p.key
	switch p.kind {
	case opSet, opSetTTL:
		o.issued[p.key]++
		f.ver = o.issued[p.key]
		p.val = p.key<<versionBits | uint64(f.ver)
	case opGet:
		f.ver = o.acked[p.key]
	}
}

// complete checks one reply. It reports whether the op succeeded; a
// failed op is either a refused request (stFail) or an oracle violation
// (counted separately as well).
func (o *oracle) complete(f *inflight, r reply) bool {
	if r.status == stFail {
		return false
	}
	switch f.kind {
	case opSet, opSetTTL:
		if r.status != stStored {
			o.violations++
			return false
		}
		if f.ver > o.acked[f.key] {
			o.acked[f.key] = f.ver
		}
	case opGet:
		switch r.status {
		case stMiss:
			if !o.missOK {
				o.violations++
				return false
			}
		case stValue:
			ver := uint32(r.val & versionMask)
			if r.val>>versionBits != f.key || ver < f.ver || ver > o.issued[f.key] {
				o.violations++
				return false
			}
		default:
			o.violations++
			return false
		}
	case opTouch:
		if r.status != stTouched && r.status != stMiss {
			o.violations++
			return false
		}
	}
	return true
}

// readBack checks a post-restart read of key: every acknowledged write
// must have survived, so the version read must be at least the
// acknowledged one (an issued-but-unacknowledged write may or may not
// have landed) and never beyond what was issued.
func (o *oracle) readBack(key uint64, r reply) bool {
	if o.acked[key] == 0 && r.status == stMiss {
		return true
	}
	if r.status != stValue {
		o.violations++
		return false
	}
	ver := uint32(r.val & versionMask)
	if r.val>>versionBits != key || ver < o.acked[key] || ver > o.issued[key] {
		o.violations++
		return false
	}
	return true
}
