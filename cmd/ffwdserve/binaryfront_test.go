package main

import (
	"testing"
	"time"

	"ffwd/internal/apps"
	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/frontend"
	"ffwd/internal/wireproto"
)

// internalErr reports whether r is the executor's internal-error answer.
func internalErr(r frontend.Result) bool {
	return r.Status == wireproto.RespError && r.Code == wireproto.CodeInternal
}

// TestFFWDBatchOpPanic: an op that panics on the server answers itself
// alone as an internal error; the ops after it in the same delegated
// batch still apply and answer.
func TestFFWDBatchOpPanic(t *testing.T) {
	ex := ffwdExecs(t, 1024, 1)[0]
	ops := []frontend.Op{
		{Kind: wireproto.OpSet, Key: 1, Val: 10},
		{Kind: wireproto.OpMGet, Keys: []uint64{1, 2, 3}},
		{Kind: wireproto.OpSet, Key: 2, Val: 20},
		{Kind: wireproto.OpGet, Key: 2},
		{Kind: wireproto.OpLen},
	}
	results := make([]frontend.Result, len(ops))
	results[1].Vals = make([]uint64, 1) // shorter than Keys: the mget panics
	ex.ExecBatch(ops, results)
	if results[0].Status != wireproto.RespStored {
		t.Errorf("op 0 (before the panic): %+v", results[0])
	}
	if !internalErr(results[1]) {
		t.Errorf("op 1 (the panic): %+v, want RespError/CodeInternal", results[1])
	}
	if results[2].Status != wireproto.RespStored || results[3].Status != wireproto.RespValue || results[3].Val != 20 ||
		results[4].Status != wireproto.RespLen || results[4].Val != 2 {
		t.Errorf("ops 2-4 (after the panic) not applied: %+v", results[2:])
	}
}

// TestFFWDBatchFaults runs a stream of batches through an executor whose
// delegation server panics inside some calls and is killed after others
// (its response lost, re-delivered after the supervisor's restart). A
// batch is one delegated call, so each is either applied once with every
// op answered, or applied not at all with every op answered as an
// internal error. The store's length and hit count show no batch
// applied twice and none applied that answered an error.
func TestFFWDBatchFaults(t *testing.T) {
	inj := fault.New(fault.Plan{CallPanicEvery: 3, KillAtOp: 2, KillEvery: 5})
	d := apps.NewDelegatedKVConfig(1024, core.Config{MaxClients: 1, Hooks: inj})
	pools, err := newFFWDPools(d, storeOpts{execs: 1, pools: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	sv := core.NewSupervisor(d.Server(), core.SupervisorConfig{Interval: 200 * time.Microsecond})
	sv.Start()
	t.Cleanup(sv.Stop)
	ex := pools[0][0]

	applied, failed := uint64(0), 0
	for b := uint64(0); b < 40; b++ {
		// Two fresh keys, a hit on one, and the length after them.
		ops := []frontend.Op{
			{Kind: wireproto.OpSet, Key: 2 * b, Val: b + 100},
			{Kind: wireproto.OpSet, Key: 2*b + 1, Val: b + 100},
			{Kind: wireproto.OpGet, Key: 2 * b},
			{Kind: wireproto.OpLen},
		}
		res := make([]frontend.Result, len(ops))
		ex.ExecBatch(ops, res)
		if internalErr(res[0]) {
			for i, r := range res {
				if !internalErr(r) {
					t.Fatalf("batch %d: op 0 failed but op %d answered %+v", b, i, r)
				}
			}
			failed++
			continue
		}
		applied++
		if res[0].Status != wireproto.RespStored || res[1].Status != wireproto.RespStored ||
			res[2].Status != wireproto.RespValue || res[2].Val != b+100 ||
			res[3].Status != wireproto.RespLen || res[3].Val != 2*applied {
			t.Fatalf("batch %d (applied batch %d): %+v", b, applied, res)
		}
	}

	// A read-only batch; retried past any injected call panic.
	ops := []frontend.Op{{Kind: wireproto.OpLen}, {Kind: wireproto.OpStats}}
	res := make([]frontend.Result, len(ops))
	for ex.ExecBatch(ops, res); internalErr(res[0]); ex.ExecBatch(ops, res) {
	}
	if res[0].Val != 2*applied || res[1].Hits != applied || res[1].Misses != 0 {
		t.Errorf("after %d applied batches: len=%d hits=%d misses=%d, want len=%d hits=%d misses=0",
			applied, res[0].Val, res[1].Hits, res[1].Misses, 2*applied, applied)
	}
	c, st := inj.Counts(), d.Server().Stats()
	if failed == 0 || c.Kills == 0 || st.LedgerSkips == 0 {
		t.Errorf("faults missed the stream: %d failed batches, %d kills, %d ledger replays", failed, c.Kills, st.LedgerSkips)
	}
}
