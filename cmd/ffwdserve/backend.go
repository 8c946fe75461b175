package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/wireproto"
)

// This file is the protocol-independent core of ffwdserve. Every store
// configuration is a frontend.Exec — typed Op batches in, typed Result
// batches out — and both wire frontends sit on that one interface: the
// binary dataplane (internal/frontend) hands its shard batches to an
// Exec directly, and the text frontend (textfront.go) is a parser and a
// formatter around the same call. The mutex exec is here; the ffwd exec
// is in binaryfront.go and the replicated one in replicated.go.

// backend is what every store configuration builds for main: the
// executors the two frontends run on, and what to do with the store at
// shutdown. Its builders register the store's stats rows as they go.
type backend struct {
	text   []frontend.Exec // pooled behind the text frontend
	binary []frontend.Exec // one per binary shard
	// statsReply, when set, answers the text stats verb in place of the
	// executor (see textFrontend.statsReply).
	statsReply func() string
	// sink is the delegation lifecycle trace, when one is captured.
	sink *obs.TraceSink
	// stop shuts the store down, after the last executor has returned.
	stop func()
}

// storeOpts is what the flags ask of a backend builder.
type storeOpts struct {
	capacity  int           // -capacity
	clients   int           // text executors (-clients; 0 when text is not served)
	shards    int           // binary executors (-shards; 0 when binary is not served)
	defTTL    uint64        // -default-ttl in ticks
	tick      func() uint64 // server time, one tick per millisecond
	parkAfter int           // -idle-park-after
	chaosSeed uint64        // -chaos-seed
	trace     bool          // capture the delegation lifecycle trace
}

// mgetMax bounds the number of keys per mget so one command line cannot
// monopolize an executor. It equals wireproto.MGetMax so the two
// frontends admit identical batches (pinned by test).
const mgetMax = wireproto.MGetMax

// execPool lends executors to text connections. Delegation client slots
// are a bounded resource, so they live in a fixed channel-based pool: a
// connection borrows an executor for one batch and returns it.
// (sync.Pool is wrong here — it may drop items, leaking slots.)
type execPool struct {
	execs chan frontend.Exec
	// shedAfter bounds how long a batch waits for an executor when the
	// pool is saturated before being answered BUSY (0 = wait forever).
	// sheds counts the batches shed that way.
	shedAfter time.Duration
	sheds     atomic.Uint64
}

func newExecPool(execs []frontend.Exec, shedAfter time.Duration) *execPool {
	p := &execPool{execs: make(chan frontend.Exec, len(execs)), shedAfter: shedAfter}
	for _, e := range execs {
		p.execs <- e
	}
	return p
}

// get borrows an executor, or returns nil once the shed timeout passes
// with the pool still saturated.
func (p *execPool) get() frontend.Exec {
	if p.shedAfter <= 0 {
		return <-p.execs
	}
	select {
	case e := <-p.execs:
		return e
	default:
	}
	t := time.NewTimer(p.shedAfter)
	defer t.Stop()
	select {
	case e := <-p.execs:
		return e
	case <-t.C:
		p.sheds.Add(1)
		return nil
	}
}

func (p *execPool) put(e frontend.Exec) { p.execs <- e }

// nExecs builds n executors with mk.
func nExecs(n int, mk func() frontend.Exec) []frontend.Exec {
	execs := make([]frontend.Exec, n)
	for i := range execs {
		execs[i] = mk()
	}
	return execs
}

// found picks the response type of an op that either hit its key or did
// not.
func found(ok bool, hit uint8) uint8 {
	if ok {
		return hit
	}
	return wireproto.RespNotFound
}

// mutexExec is the global-lock baseline behind either frontend: every
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
	mk := func() frontend.Exec { return &mutexExec{kv: kv, tick: o.tick, defTTL: o.defTTL} }
	return &backend{text: nExecs(o.clients, mk), binary: nExecs(o.shards, mk), stop: func() {}}
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

// The text protocol: a command line parses to one frontend.Op (or to an
// immediate reply when it is malformed), and one Result formats to one
// reply line. Both frontends therefore answer from the same executor
// results; the parity test pins that the renderings agree.

const usageMsg = "ERROR usage: get k | mget k... | set k v | setx k v ttl | touch k ttl | del k | len | stats | quit"

const (
	busyPool  = "BUSY delegation pool saturated"
	busyShard = "BUSY replicated shard unavailable"
)

// textCmd is what one command line asks for.
type textCmd uint8

const (
	cmdOp    textCmd = iota // run the parsed Op
	cmdReply                // answer with the reply parse produced
	cmdStats                // the stats verb (answered by the executor, or by the frontend's override)
	cmdQuit
	cmdNone // a blank line: no command, no reply
)

// isWord reports whether tok spells the lower-case ASCII word w in any
// case.
func isWord(tok []byte, w string) bool {
	if len(tok) != len(w) {
		return false
	}
	for i := range tok {
		if tok[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || (c >= '\t' && c <= '\r') }

// parse splits a command line into its verb and numeric arguments and
// maps it to an Op. args is scratch for the numbers (returned regrown);
// an mget Op's Keys alias it, so the Op is good until the next parse
// into the same scratch. cmdReply carries the reply line.
func parse(line []byte, op *frontend.Op, args []uint64) (textCmd, string, []uint64) {
	var verb []byte
	args = args[:0]
	for i := 0; i < len(line); {
		if isSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if verb == nil {
			verb = line[i:j]
		} else {
			v, err := strconv.ParseUint(string(line[i:j]), 10, 64)
			if err != nil {
				return cmdReply, fmt.Sprintf("ERROR bad number %q", line[i:j]), args
			}
			args = append(args, v)
		}
		i = j
	}
	if verb == nil {
		return cmdNone, "", args
	}
	*op = frontend.Op{}
	n := len(args)
	switch {
	case isWord(verb, "get") && n == 1:
		op.Kind, op.Key = wireproto.OpGet, args[0]
	case isWord(verb, "mget") && n >= 1:
		if n > mgetMax {
			return cmdReply, fmt.Sprintf("ERROR mget limited to %d keys", mgetMax), args
		}
		op.Kind, op.Keys = wireproto.OpMGet, args
	case isWord(verb, "set") && n == 2:
		op.Kind, op.Key, op.Val = wireproto.OpSet, args[0], args[1]
	case isWord(verb, "setx") && n == 3:
		op.Kind, op.Key, op.Val, op.TTL = wireproto.OpSetTTL, args[0], args[1], args[2]
	case isWord(verb, "touch") && n == 2:
		op.Kind, op.Key, op.TTL = wireproto.OpTouch, args[0], args[1]
	case isWord(verb, "del") && n == 1:
		op.Kind, op.Key = wireproto.OpDel, args[0]
	case isWord(verb, "len") && n == 0:
		op.Kind = wireproto.OpLen
	case isWord(verb, "stats") && n == 0:
		op.Kind = wireproto.OpStats
		return cmdStats, "", args
	case isWord(verb, "quit") && n == 0:
		return cmdQuit, "", args
	default:
		return cmdReply, usageMsg, args
	}
	if (op.Kind == wireproto.OpSet || op.Kind == wireproto.OpSetTTL) && op.Val == wireproto.MissValue {
		return cmdReply, "ERROR value reserved", args
	}
	return cmdOp, "", args
}

// appendReply renders one executor result as a reply line (no newline).
// Both frontends' replies come through here (the binary one's in the
// parity test), so their wording cannot drift.
func appendReply(out []byte, res *frontend.Result) []byte {
	switch res.Status {
	case wireproto.RespValue:
		return strconv.AppendUint(append(out, "VALUE "...), res.Val, 10)
	case wireproto.RespNotFound:
		return append(out, "NOT_FOUND"...)
	case wireproto.RespStored:
		return append(out, "STORED"...)
	case wireproto.RespDeleted:
		return append(out, "DELETED"...)
	case wireproto.RespTouched:
		return append(out, "TOUCHED"...)
	case wireproto.RespValues:
		out = append(out, "VALUES"...)
		for _, v := range res.Vals {
			if v == wireproto.MissValue {
				out = append(out, " -"...)
			} else {
				out = strconv.AppendUint(append(out, ' '), v, 10)
			}
		}
		return out
	case wireproto.RespLen:
		return strconv.AppendUint(append(out, "LEN "...), res.Val, 10)
	case wireproto.RespStats:
		return fmt.Appendf(out, "STATS hits=%d misses=%d evictions=%d expired=%d", res.Hits, res.Misses, res.Evictions, res.Expired)
	case wireproto.RespBusy:
		return append(out, busyShard...)
	case wireproto.RespError:
		switch res.Code {
		case wireproto.CodeValueReserved:
			return append(out, "ERROR value reserved"...)
		case wireproto.CodeBadOp:
			// A command this backend does not serve is an unknown command.
			return append(out, usageMsg...)
		}
	}
	return append(out, "ERROR internal"...)
}
