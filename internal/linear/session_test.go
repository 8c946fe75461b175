package linear

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"ffwd/internal/core"
)

// sessionKV is a delegated map with the KVModel alphabet, driven through
// core.AsyncGroup windows: each session is one goroutine pipelining its
// operations, recorded at submit and at delivery.
type sessionKV struct {
	s                      *core.Server
	fidGet, fidSet, fidDel core.FuncID
	rec                    *Recorder
}

const sessionMiss = ^uint64(0) // values stay below it

func newSessionKV(t *testing.T, maxClients int) *sessionKV {
	s := core.NewServer(core.Config{MaxClients: maxClients})
	kv := make(map[uint64]uint64)
	k := &sessionKV{s: s, rec: NewRecorder()}
	k.fidGet = s.Register(func(a *[core.MaxArgs]uint64) uint64 {
		if v, ok := kv[a[0]]; ok {
			return v
		}
		return sessionMiss
	})
	k.fidSet = s.Register(func(a *[core.MaxArgs]uint64) uint64 { kv[a[0]] = a[1]; return 0 })
	k.fidDel = s.Register(func(a *[core.MaxArgs]uint64) uint64 {
		_, ok := kv[a[0]]
		delete(kv, a[0])
		if ok {
			return 1
		}
		return 0
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return k
}

// session pipelines ops (kind, key, value triples) through one window and
// records them as session id's operations.
func (k *sessionKV) session(t *testing.T, id, window int, ops [][3]uint64) {
	g, err := core.NewAsyncGroup(k.s, window)
	if err != nil {
		t.Error(err)
		return
	}
	defer g.Close()
	var inflight []int // history indices, oldest first: delivery is FIFO
	kinds := make(map[int]uint8)
	fids := map[uint8]core.FuncID{KVGet: k.fidGet, KVSet: k.fidSet, KVDel: k.fidDel}
	complete := func(ret uint64) {
		idx := inflight[0]
		inflight = inflight[1:]
		switch kinds[idx] {
		case KVGet:
			k.rec.Complete(idx, ret, ret != sessionMiss)
		case KVSet:
			k.rec.Complete(idx, 0, false)
		case KVDel:
			k.rec.Complete(idx, 0, ret == 1)
		}
	}
	for _, op := range ops {
		kind, key, val := uint8(op[0]), op[1], op[2]
		idx := k.rec.Invoke(id, kind, key, val)
		kinds[idx] = kind
		inflight = append(inflight, idx)
		if ret, ok := g.Submit2(fids[kind], key, val); ok {
			complete(ret)
		}
	}
	g.Flush(complete)
}

// TestSessionOrderPipelinedSameKey: sessions that pipeline reads, writes
// and deletes of the same two keys through 8-deep windows must produce a
// history that is linearizable with every session's program order kept —
// at every GOMAXPROCS.
func TestSessionOrderPipelinedSameKey(t *testing.T) {
	const sessions, window, opsEach, keys = 3, 8, 120, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			k := newSessionKV(t, sessions*window)
			var wg sync.WaitGroup
			for w := 0; w < sessions; w++ {
				rng := uint64(procs)<<8 | uint64(w)
				ops := make([][3]uint64, opsEach)
				for i := range ops {
					kind := []uint8{KVSet, KVSet, KVGet, KVGet, KVDel}[splitmix(&rng)%5]
					// Values are unique per (session, op).
					ops[i] = [3]uint64{uint64(kind), splitmix(&rng) % keys, uint64(w+1)<<32 | uint64(i+1)}
				}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					k.session(t, w, window, ops)
				}(w)
			}
			wg.Wait()
			if h := k.rec.History(); !CheckSessions(KVModel(), h) {
				t.Fatalf("a %d-op pipelined history breaks per-session program order", len(h))
			}
		})
	}
}

// TestSessionOrderRejectsSwap is the checker's mutant leg: one session
// pipelines SET k 1, SET k 2, GET k in one burst. All three overlap in
// real time, so per-key linearizability alone accepts the history with
// the two sets' places swapped; the session check must not.
func TestSessionOrderRejectsSwap(t *testing.T) {
	k := newSessionKV(t, 4)
	k.session(t, 0, 4, [][3]uint64{{uint64(KVSet), 7, 1}, {uint64(KVSet), 7, 2}, {uint64(KVGet), 7, 0}})
	h := k.rec.History()
	if len(h) != 3 || h[2].Out != 2 || !h[2].OutOK {
		t.Fatalf("history %+v: want the get to read the second set", h)
	}
	if !CheckSessions(KVModel(), h) {
		t.Fatal("the recorded history was rejected")
	}
	h[0].Call, h[1].Call = h[1].Call, h[0].Call
	h[0].Ret, h[1].Ret = h[1].Ret, h[0].Ret
	if !Check(KVModel(), h) {
		t.Fatal("per-key linearizability was expected to accept the swapped sets (they overlap)")
	}
	if CheckSessions(KVModel(), h) {
		t.Fatal("a history with two same-session operations swapped was accepted")
	}
}
