package core

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/fault"
)

// The chaos suite (run via `make chaos`, seed-overridable with
// FFWD_CHAOS_SEED) drives the delegation stack through internal/fault's
// injected failures: delayed sweeps, dropped wakes, slow and panicking
// delegated functions, and server kills — asserting the robustness
// contract: bounded waits never hang, a Supervisor repairs what is
// repairable, and the channel protocol stays coherent across timeouts,
// drains, and restarts.

// chaosSeeds returns the seeds for the mixed-fault run: FFWD_CHAOS_SEED
// if set, else a fixed default set.
func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	seeds, err := fault.SeedsFromEnv(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

func chaosEcho(a *[MaxArgs]uint64) uint64 { return a[0] }

// TestChaosKillMidFlightRecovery is the headline failure scenario: the
// server goroutine is killed mid-flight. Clients must fail with
// ErrTimeout/ErrServerStopped within their deadline — no hang — and after
// the Supervisor restarts the server (slot/toggle/occupancy state
// preserved), the same clients must delegate successfully again.
func TestChaosKillMidFlightRecovery(t *testing.T) {
	inj := fault.New(fault.Plan{KillAtOp: 40})
	s := NewServer(Config{MaxClients: 4, Hooks: inj})
	echo := s.Register(chaosEcho)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// The supervisor checks more slowly than the client deadline so the
	// death window is client-visible: errors must surface, bounded.
	sv := NewSupervisor(s, SupervisorConfig{Interval: 25 * time.Millisecond})
	sv.Start()
	defer sv.Stop()

	const workers, ops = 4, 60
	const deadline = 5 * time.Millisecond
	var clientErrs, slowFailures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		tag := uint64(w+1) << 32
		go func() {
			defer wg.Done()
			c := s.MustNewClient()
			defer c.Close()
			for i := uint64(0); i < ops; i++ {
				want := tag | i
				for attempt := 0; ; attempt++ {
					start := time.Now()
					got, err := c.DelegateTimeout(deadline, echo, want)
					if err == nil {
						if got != want {
							t.Errorf("after recovery got %x, want %x (toggle state incoherent)", got, want)
						}
						break
					}
					if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrServerStopped) {
						t.Errorf("unexpected error class: %v", err)
						return
					}
					// "Within their deadline": the error must arrive
					// bounded, not after an open-ended spin.
					if time.Since(start) > deadline+250*time.Millisecond {
						slowFailures.Add(1)
					}
					clientErrs.Add(1)
					if attempt > 500 {
						t.Error("client never recovered after server kill")
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if clientErrs.Load() == 0 {
		t.Error("server kill produced no client-visible errors; the fault was not exercised")
	}
	if n := slowFailures.Load(); n != 0 {
		t.Errorf("%d bounded waits overran their deadline by >250ms", n)
	}
	if st.ServerCrashes == 0 {
		t.Error("Stats.ServerCrashes = 0 after an injected kill")
	}
	if st.Restarts == 0 {
		t.Error("supervisor never restarted the killed server")
	}
	if st.LastPanic == nil {
		t.Error("Stats.LastPanic not recorded for the crash")
	}
}

// TestChaosMixedFaultSeeds runs a concurrent echo workload under a full
// seed-derived fault mix (all four classes) with a fast supervisor: every
// operation must eventually complete with the right value, whatever the
// injector throws.
func TestChaosMixedFaultSeeds(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			inj := fault.FromSeed(seed)
			t.Logf("plan: %v", inj)
			s := NewServer(Config{MaxClients: 8, Hooks: inj})
			echo := s.Register(chaosEcho)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			sv := NewSupervisor(s, SupervisorConfig{Interval: time.Millisecond, KickAfter: 2})
			sv.Start()
			defer sv.Stop()

			const workers, ops = 8, 250
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				tag := uint64(w+1) << 32
				go func() {
					defer wg.Done()
					c := s.MustNewClient()
					defer c.Close()
					for i := uint64(0); i < ops; i++ {
						want := tag | i
						for attempt := 0; ; attempt++ {
							got, err := c.DelegateTimeout(50*time.Millisecond, echo, want)
							if err == nil {
								if got != want {
									t.Errorf("got %x, want %x (mis-routed under faults)", got, want)
								}
								break
							}
							var rec *PanicRecord
							if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrServerStopped) && !errors.As(err, &rec) {
								t.Errorf("unexpected error class: %v", err)
								return
							}
							if attempt > 1000 {
								t.Errorf("op %x never completed under seed %d", want, seed)
								return
							}
							time.Sleep(500 * time.Microsecond)
						}
					}
				}()
			}
			wg.Wait()
			t.Logf("faults fired: %+v; stats: crashes=%d restarts=%d kicks=%d panics=%d",
				inj.Counts(), s.Stats().ServerCrashes, s.Stats().Restarts, s.Stats().Kicks, s.Stats().Panics)
		})
	}
}

// TestChaosDroppedWakeRescue drops every park/wake notification and
// issues each op only once the server has parked since serving the one
// before, so every issue meets a parked server and a dropped wake: without
// supervision each would strand its client; the supervisor's periodic
// kick must rescue them all.
func TestChaosDroppedWakeRescue(t *testing.T) {
	inj := fault.New(fault.Plan{DropWakeEvery: 1})
	s := NewServer(Config{MaxClients: 2, IdleParkAfter: 1, Hooks: inj})
	echo := s.Register(chaosEcho)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	sv := NewSupervisor(s, SupervisorConfig{Interval: 200 * time.Microsecond, KickAfter: 2})
	sv.Start()
	defer sv.Stop()

	c := s.MustNewClient()
	defer c.Close()
	for i := uint64(0); i < 50; i++ {
		// A park counted after the previous response was read happened
		// after that op was served, and only a kick lowers the flag it
		// raised (every wake is dropped).
		parks := s.Stats().IdleParks
		for deadline := time.Now().Add(5 * time.Second); s.Stats().IdleParks == parks; {
			if time.Now().After(deadline) {
				t.Fatalf("op %d: the server never parked", i)
			}
			runtime.Gosched()
		}
		got, err := c.DelegateTimeout(500*time.Millisecond, echo, 0xbeef+i)
		if err != nil {
			t.Fatalf("op %d not rescued from a dropped wake: %v", i, err)
		}
		if got != 0xbeef+i {
			t.Fatalf("op %d returned %x", i, got)
		}
	}
	if n := inj.Counts().DroppedWakes; n == 0 {
		t.Error("no wakes were dropped; the park path was never exercised")
	}
	if s.Stats().Kicks == 0 {
		t.Error("supervisor never kicked; rescues did not come from supervision")
	}
}

// TestChaosSlowSweepTimeoutDrain delays every sweep well past the client
// deadline: bounded waits must return ErrTimeout, and the late response
// must be drained by the retry so the toggle protocol stays coherent.
func TestChaosSlowSweepTimeoutDrain(t *testing.T) {
	inj := fault.New(fault.Plan{SweepDelayEvery: 1, SweepDelay: 3 * time.Millisecond})
	s := NewServer(Config{MaxClients: 1, Hooks: inj})
	echo := s.Register(chaosEcho)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	c := s.MustNewClient()
	defer c.Close()
	timeouts := 0
	for i := uint64(0); i < 10; i++ {
		want := 0xf00d + i
		got, err := c.DelegateTimeout(200*time.Microsecond, echo, want)
		if err != nil {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("op %d: %v, want ErrTimeout", i, err)
			}
			timeouts++
			// The retry must drain the abandoned op's late response and
			// then round-trip the reissued one.
			got, err = c.DelegateTimeout(2*time.Second, echo, want)
			if err != nil {
				t.Fatalf("op %d retry failed: %v", i, err)
			}
		}
		if got != want {
			t.Fatalf("op %d returned %x, want %x (stale response not drained)", i, got, want)
		}
	}
	if timeouts == 0 {
		t.Fatal("3ms sweep delays never tripped a 200µs deadline")
	}
}

// TestChaosPanickingCallsSurfaceAsErrors injects a deterministic panic
// pattern into the delegated calls: DelegateErr must report exactly those
// ops as *PanicRecord errors — not the ambiguous all-ones sentinel — and
// the server must keep serving throughout.
func TestChaosPanickingCallsSurfaceAsErrors(t *testing.T) {
	inj := fault.New(fault.Plan{CallPanicEvery: 3})
	s := NewServer(Config{MaxClients: 1, Hooks: inj})
	seven := s.Register(func(*[MaxArgs]uint64) uint64 { return 7 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	c := s.MustNewClient()
	defer c.Close()
	const ops = 12
	for i := uint64(0); i < ops; i++ {
		got, err := c.DelegateErr(seven)
		if wantPanic := i%3 == 2; wantPanic {
			var rec *PanicRecord
			if !errors.As(err, &rec) {
				t.Fatalf("op %d: err = %v, want *PanicRecord", i, err)
			}
			if !rec.HasFID || rec.FID != seven || rec.Op != i {
				t.Fatalf("op %d: record = %+v", i, rec)
			}
		} else {
			if err != nil {
				t.Fatalf("op %d: unexpected error %v", i, err)
			}
			if got != 7 {
				t.Fatalf("op %d: got %d, want 7", i, got)
			}
		}
	}
	st := s.Stats()
	if st.Panics != ops/3 {
		t.Fatalf("Stats.Panics = %d, want %d", st.Panics, ops/3)
	}
	if st.LastPanic == nil || st.LastPanic.Op != ops-1 {
		t.Fatalf("Stats.LastPanic = %+v, want record for op %d", st.LastPanic, ops-1)
	}
	if st.ServerCrashes != 0 {
		t.Fatal("delegated-call panics must not crash the server")
	}
}

// TestChaosPoolShardDegradation kills one shard of a two-shard pool: its
// keys must fail fast with bounded errors while the sibling shard keeps
// serving, and after a restart a key-routed DelegateRetry first drains the
// orphaned request (answered from the ledger, not run again) and then
// completes its own.
func TestChaosPoolShardDegradation(t *testing.T) {
	// Shard 0 dies after serving its first request (response lost
	// unflushed); shard 1 is fault-free. The pool is assembled by hand
	// so the injector targets exactly one shard.
	s0 := NewServer(Config{MaxClients: 2, Hooks: fault.New(fault.Plan{KillAtOp: 1})})
	s1 := NewServer(Config{MaxClients: 2})
	p := &Pool{servers: []*Server{s0, s1}}
	var applied0 int
	bump := p.RegisterAll(func(a *[MaxArgs]uint64) uint64 {
		if a[0]%2 == 0 {
			applied0++ // even keys route to shard 0; only s0's goroutine gets here
		}
		return a[0]
	})
	if err := p.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer p.StopAll()
	pc := p.MustNewClient()

	// One request to each shard; serving shard 0's kills it.
	if _, err := pc.DelegateTimeout(100*time.Millisecond, 0, bump, 500); err == nil {
		t.Fatal("delegate across the kill succeeded; want the dead shard to fail")
	}
	if got, err := pc.DelegateTimeout(100*time.Millisecond, 1, bump, 601); err != nil || got != 601 {
		t.Fatalf("live shard: got %d err %v, want 601", got, err)
	}
	if pc.ShardHealthy(0) || !pc.ShardHealthy(1) || p.Healthy() {
		t.Fatalf("health: shard0=%v shard1=%v pool=%v, want false/true/false",
			pc.ShardHealthy(0), pc.ShardHealthy(1), p.Healthy())
	}

	// The live shard keeps serving its keys...
	for i := uint64(0); i < 20; i++ {
		got, derr := pc.DelegateTimeout(100*time.Millisecond, 1, bump, 701+2*i)
		if derr != nil || got != 701+2*i {
			t.Fatalf("live shard degraded: got %d err %v", got, derr)
		}
	}
	// ...while the dead shard's keys fail fast and bounded.
	start := time.Now()
	if _, derr := pc.DelegateTimeout(100*time.Millisecond, 2, bump, 12); !errors.Is(derr, ErrServerStopped) {
		t.Fatalf("delegate to a dead shard: %v, want ErrServerStopped", derr)
	}
	if time.Since(start) > time.Second {
		t.Fatal("dead-shard delegate was not bounded")
	}

	// Restart the crashed shard: the retry drains the orphaned request
	// (served but unflushed when the kill hit), then runs its own.
	if !s0.RestartIfCrashed() {
		t.Fatal("RestartIfCrashed found nothing to restart")
	}
	got, err := pc.DelegateRetry(RetryPolicy{}, time.Second, 0, bump, 800)
	if err != nil || got != 800 {
		t.Fatalf("retry after restart: got %d err %v, want 800", got, err)
	}
	// Channels are coherent again: both shards serve synchronously.
	for key := uint64(0); key < 4; key++ {
		got, derr := pc.DelegateTimeout(time.Second, key, bump, 900+key)
		if derr != nil || got != 900+key {
			t.Fatalf("post-recovery key %d: got %d err %v", key, got, derr)
		}
	}
	pc.Close()
	p.StopAll()
	// 500, 800, 900, 902: the refused 12 was never issued, and 500 ran once.
	if applied0 != 4 {
		t.Fatalf("shard 0 applied %d requests, want 4 (each exactly once)", applied0)
	}
	if st := s0.Stats(); st.ServerCrashes != 1 || st.Restarts != 1 || st.LedgerSkips != 1 {
		t.Fatalf("shard0 stats: crashes=%d restarts=%d ledger-skips=%d, want 1/1/1",
			st.ServerCrashes, st.Restarts, st.LedgerSkips)
	}
}

// TestChaosExactlyOnceAcrossRestarts is the headline exactly-once
// scenario: a non-idempotent delegated increment under repeated
// supervisor-repaired server kills. Each kill loses a flushed response
// but not the applied effect; the restarted server must answer the
// re-delivered request from its ledger (observable via Stats.LedgerSkips)
// rather than re-execute it, so every DelegateRetry return value is the
// counter's value applied exactly once, in order.
func TestChaosExactlyOnceAcrossRestarts(t *testing.T) {
	inj := fault.New(fault.Plan{KillAtOp: 20, KillEvery: 40})
	s := NewServer(Config{MaxClients: 2, Hooks: inj})
	var counter uint64
	inc := s.Register(func(*[MaxArgs]uint64) uint64 { counter++; return counter })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	sv := NewSupervisor(s, SupervisorConfig{Interval: time.Millisecond, KickAfter: 2})
	sv.Start()
	defer sv.Stop()

	policy := RetryPolicy{MaxAttempts: 200, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond}
	c := s.MustNewClient()
	defer c.Close()
	const ops = 300
	for i := uint64(1); i <= ops; i++ {
		got, err := c.DelegateRetry(policy, 5*time.Millisecond, inc)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != i {
			t.Fatalf("op %d returned counter %d: the increment was applied %+d times too many/few",
				i, got, int64(got)-int64(i))
		}
	}
	if counter != ops {
		t.Fatalf("counter = %d after %d ops, want exactly-once application", counter, ops)
	}
	st := s.Stats()
	if st.ServerCrashes == 0 || st.Restarts == 0 {
		t.Fatalf("crashes=%d restarts=%d: the kill fault was never exercised", st.ServerCrashes, st.Restarts)
	}
	if st.LedgerSkips == 0 {
		t.Fatal("Stats.LedgerSkips = 0: no re-delivered request was fenced by the ledger")
	}
	if st.LedgerSkips < st.ServerCrashes {
		t.Errorf("LedgerSkips = %d < ServerCrashes = %d: some killed op's re-delivery was not fenced",
			st.LedgerSkips, st.ServerCrashes)
	}
	t.Logf("exactly-once: crashes=%d restarts=%d ledger-skips=%d retry-waits=%d",
		st.ServerCrashes, st.Restarts, st.LedgerSkips, st.RetryWaits)
}

// TestChaosShardDiesMidFlush covers the gap left by the pre-dead-server
// tests: shard 0 is killed while a window's FlushTimeout is actively
// waiting on it (a slow delegated call keeps the flush in flight across
// the kill), with one request executed-but-unflushed and one not yet run.
// The flush must fail bounded, both requests must survive as abandoned,
// the sibling shard must keep serving, and after a restart the same
// FlushTimeout must collect both results in submit order — each applied
// exactly once.
func TestChaosShardDiesMidFlush(t *testing.T) {
	// Shard 0: every call sleeps 5ms, and the server is killed after
	// serving its first op — i.e. mid-flush from the client's view, since
	// FlushTimeout is already blocked on the shard when the kill fires.
	s0 := NewServer(Config{MaxClients: 3, Hooks: fault.New(fault.Plan{
		CallDelayEvery: 1, CallDelay: 5 * time.Millisecond, KillAtOp: 1,
	})})
	s1 := NewServer(Config{MaxClients: 2})
	p := &Pool{servers: []*Server{s0, s1}}
	var applied atomic.Uint64
	bump := p.RegisterAll(func(a *[MaxArgs]uint64) uint64 {
		applied.Add(1)
		return a[0]
	})
	if err := p.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer p.StopAll()
	g, err := NewAsyncGroup(s0, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := p.MustNewClient()

	g.Submit1(bump, 41)
	g.Submit1(bump, 43)
	// The flush deadline comfortably covers the 5ms call delay, so the
	// wait on shard 0 is live when the server dies: the error must be
	// the mid-flight death (ErrServerStopped), not a pre-dead fast-fail.
	start := time.Now()
	if err := g.FlushTimeout(time.Second, func(ret uint64) {
		t.Errorf("dead shard delivered %d", ret)
	}); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("FlushTimeout err=%v; want the mid-flush death surfaced as ErrServerStopped", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("mid-flush death was not bounded")
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want the dead shard's requests still accounted", g.InFlight())
	}
	if got, err := pc.DelegateTimeout(time.Second, 1, bump, 42); err != nil || got != 42 {
		t.Fatalf("live shard: got %d err %v, want 42", got, err)
	}

	// Restart and re-flush: the killed op was executed and ledgered, so
	// recovery replays the recorded result without a second application,
	// then runs the one behind it.
	if !s0.RestartIfCrashed() {
		t.Fatal("RestartIfCrashed found nothing to restart")
	}
	var recovered []uint64
	if err := g.FlushTimeout(2*time.Second, func(ret uint64) { recovered = append(recovered, ret) }); err != nil {
		t.Fatalf("flush after restart: %v", err)
	}
	if len(recovered) != 2 || recovered[0] != 41 || recovered[1] != 43 {
		t.Fatalf("recovered = %v, want [41 43]", recovered)
	}
	if got := applied.Load(); got != 3 {
		t.Fatalf("delegated function applied %d times for 3 ops, want exactly once each", got)
	}
	if st := s0.Stats(); st.LedgerSkips != 1 {
		t.Fatalf("shard0 LedgerSkips = %d, want the re-delivered op fenced exactly once", st.LedgerSkips)
	}
	g.Close()
	pc.Close()
}
