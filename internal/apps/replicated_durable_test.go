package apps

import (
	"bytes"
	"errors"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"ffwd/internal/core"
	"ffwd/internal/fault"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
	"ffwd/internal/reptrans"
)

func rkvWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A client blocked in retry backoff against a down shard returns
// promptly when its handle is closed, instead of sleeping out the
// remaining budget. The shard is never started, so every attempt fails
// in ensure() and the second attempt parks in the (hour-long) backoff.
func TestRKVClientBackoffInterruptedByClose(t *testing.T) {
	r, err := NewReplicatedKV(16, ReplicatedConfig{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	k := r.NewClientPolicy(RKVPolicy{
		MaxAttempts: 1 << 20,
		BaseDelay:   time.Hour,
		MaxDelay:    time.Hour,
		PerTry:      time.Millisecond,
	})

	errCh := make(chan error, 1)
	go func() {
		_, _, err := k.Get(1)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine park in backoff
	start := time.Now()
	k.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrReplicatedDown) {
			t.Fatalf("interrupted op returned %v, want ErrReplicatedDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not interrupt the retry backoff")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("interrupt took %v", d)
	}
}

// Stopping the shard interrupts every client's in-flight backoff the
// same way — the regression this pins is a Stop() that returned while
// clients kept sleeping against a shard that was gone for good.
func TestRKVClientBackoffInterruptedByStop(t *testing.T) {
	r, err := NewReplicatedKV(16, ReplicatedConfig{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := r.NewClientPolicy(RKVPolicy{
		MaxAttempts: 1 << 20,
		BaseDelay:   time.Hour,
		MaxDelay:    time.Hour,
		PerTry:      time.Millisecond,
	})
	defer k.Close()

	errCh := make(chan error, 1)
	go func() {
		err := k.Set(1, 2)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	r.Stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrReplicatedDown) {
			t.Fatalf("interrupted op returned %v, want ErrReplicatedDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not interrupt the retry backoff")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("interrupt took %v", d)
	}
}

// The quorum-loss lifecycle, end to end: kill a majority, crash the
// leader's server so the failed election tears the generation down,
// assert clients error fast (no hang, no silent success), then play
// operator — revive members, Reopen — and prove every write acked
// before the loss is still readable after it.
func TestReplicatedReopenAfterQuorumLoss(t *testing.T) {
	for _, seed := range rkvSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			// Ops 1..5 are the acked pre-loss Sets; the seeded kill lands
			// on the first op issued after the followers die.
			inj := fault.New(fault.Plan{Seed: seed, KillAtOp: 6})
			r, err := NewReplicatedKV(64, ReplicatedConfig{
				Replicas:   3,
				Core:       core.Config{MaxClients: 2, Hooks: inj},
				Supervisor: core.SupervisorConfig{Interval: 200 * time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			g := r.Group()

			k := r.NewClientPolicy(RKVPolicy{PerTry: 2 * time.Millisecond})
			defer k.Close()
			for i := uint64(1); i <= 5; i++ {
				if err := k.Set(i, 100+i); err != nil {
					t.Fatalf("pre-loss Set(%d): %v", i, err)
				}
			}

			// Kill the majority out from under the leader.
			lead, _ := g.Leader()
			g.KillReplica((lead.ID() + 1) % g.Members())
			g.KillReplica((lead.ID() + 2) % g.Members())

			// The next Set executes as op 6: the injector kills the
			// leader's server mid-op, the supervisor hands the crash to
			// failover, and the election finds no quorum — the shard goes
			// down instead of serving a new generation.
			_ = k.Set(6, 106) // fate unknown; the shard dies under it
			rkvWaitFor(t, "shard down after failed election", func() bool {
				return r.Server() == nil
			})

			// Down means *fast* errors: a bounded retry budget returns
			// ErrReplicatedDown in milliseconds, not PerTry-by-MaxAttempts.
			kf := r.NewClientPolicy(RKVPolicy{MaxAttempts: 5, PerTry: time.Millisecond})
			defer kf.Close()
			start := time.Now()
			if err := kf.Set(7, 107); !errors.Is(err, ErrReplicatedDown) {
				t.Fatalf("write against down shard: %v, want ErrReplicatedDown", err)
			}
			if _, _, err := kf.Get(1); !errors.Is(err, ErrReplicatedDown) {
				t.Fatalf("read against down shard: %v, want ErrReplicatedDown", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("down-shard ops took %v; want fast errors", d)
			}

			// Operator repair: revive members, re-run the election.
			for i := 0; i < g.Members(); i++ {
				_ = g.Restart(i) // errors (alive, or still leader) are fine
			}
			if err := r.Reopen(); err != nil {
				t.Fatalf("Reopen: %v", err)
			}
			if r.Server() == nil {
				t.Fatal("Reopen left the shard down")
			}

			// Every acked pre-loss write survived the quorum loss.
			k2 := r.NewClient()
			defer k2.Close()
			for i := uint64(1); i <= 5; i++ {
				v, ok, err := k2.Get(i)
				if err != nil || !ok || v != 100+i {
					t.Fatalf("post-reopen Get(%d) = %d,%v,%v; want %d,true,nil", i, v, ok, err, 100+i)
				}
			}
			// And the shard serves new writes again.
			if err := k2.Set(50, 500); err != nil {
				t.Fatalf("post-reopen Set: %v", err)
			}
		})
	}
}

// durableFollower runs an in-process follower endpoint exactly the way
// ffwdserve -replica-member does: replog store, member over the exported
// KV machine, reptrans server.
type durableFollower struct {
	dir    string
	store  *replog.Store
	member *replica.Member
	srv    *reptrans.Server
}

func startDurableFollower(t *testing.T, dir, addr string) *durableFollower {
	t.Helper()
	st, rec, err := replog.Open(dir, replog.Options{})
	if err != nil {
		t.Fatalf("follower replog.Open: %v", err)
	}
	m := replica.NewMember(NewKVMachine(64), 0, st)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		t.Fatalf("follower Recover: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := reptrans.NewServer(ln, reptrans.ServerConfig{Member: m, Store: st, Logf: t.Logf})
	return &durableFollower{dir: dir, store: st, member: m, srv: srv}
}

func (f *durableFollower) stop() {
	f.srv.Close()
	f.store.Close()
}

// Durable pinned-leader mode end to end, in-process: a leader with a
// WAL and two socket followers commits a burst, stops, and a second
// incarnation opened on the same directory serves every acked write —
// at a higher term, so the followers fence the dead incarnation's
// sessions.
func TestDurableReplicatedKVRecovery(t *testing.T) {
	base := t.TempDir()
	f1 := startDurableFollower(t, filepath.Join(base, "f1"), "127.0.0.1:0")
	defer f1.stop()
	f2 := startDurableFollower(t, filepath.Join(base, "f2"), "127.0.0.1:0")
	defer f2.stop()
	cfg := ReplicatedConfig{
		DataDir:       filepath.Join(base, "leader"),
		Peers:         []string{f1.srv.Addr().String(), f2.srv.Addr().String()},
		SnapshotEvery: 8,
	}

	r, err := NewReplicatedKV(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Peers()); got != 2 {
		t.Fatalf("Peers() = %d, want 2", got)
	}
	term1 := r.Group().Stats().Term

	k := r.NewClient()
	for i := uint64(1); i <= 30; i++ {
		if err := k.Set(i%7, i); err != nil {
			t.Fatalf("Set #%d: %v", i, err)
		}
	}
	if st := r.Group().Stats(); st.Commits != 30 || st.RemoteAcks == 0 {
		t.Fatalf("first incarnation stats: %+v", st)
	}
	k.Close()
	r.Stop()

	// Second incarnation: same directory, same followers. Recovery must
	// replay the full acked state and take a strictly newer term.
	r2, err := NewReplicatedKV(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()
	if term2 := r2.Group().Stats().Term; term2 <= term1 {
		t.Fatalf("reopened term %d, want > %d", term2, term1)
	}
	k2 := r2.NewClient()
	defer k2.Close()
	want := map[uint64]uint64{}
	for i := uint64(1); i <= 30; i++ {
		want[i%7] = i
	}
	for key, val := range want {
		v, ok, err := k2.Get(key)
		if err != nil || !ok || v != val {
			t.Fatalf("recovered Get(%d) = %d,%v,%v; want %d,true,nil", key, v, ok, err, val)
		}
	}
	// New writes commit through the same remote quorum, and the
	// followers converge to the leader's exact state image. The
	// read-back is the regression pin for client-ID reuse across
	// restart: the reopened process's first client must not inherit the
	// dead incarnation's ledger seqs, or this acked Set is fenced as a
	// duplicate at apply time and silently dropped.
	if err := k2.Set(3, 999); err != nil {
		t.Fatalf("post-recovery Set: %v", err)
	}
	if v, ok, err := k2.Get(3); err != nil || !ok || v != 999 {
		t.Fatalf("post-recovery Get(3) = %d,%v,%v; want 999,true,nil", v, ok, err)
	}
	lead, _ := r2.Group().Leader()
	leadState := lead.SM().(*kvMachine).s.EncodeState()
	wantApplied := r2.Group().Stats().CommitIndex
	for _, f := range []*durableFollower{f1, f2} {
		f := f
		rkvWaitFor(t, "follower converged", func() bool {
			_, _, applied := f.srv.MemberState()
			return applied == wantApplied
		})
		if got := f.member.SM().(*kvMachine).s.EncodeState(); !bytes.Equal(got, leadState) {
			t.Fatal("follower state image diverged from the leader's")
		}
	}
}

// gatedStore holds a follower's durable appends while its gate is set,
// so the leader's writes wait on the remote quorum for as long as a
// test likes.
type gatedStore struct {
	replica.Storage
	mu   sync.Mutex
	gate chan struct{}
}

func (s *gatedStore) AppendEntries(ents []replica.Entry) error {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return s.Storage.AppendEntries(ents)
}

func (s *gatedStore) setGate(gate chan struct{}) {
	s.mu.Lock()
	s.gate = gate
	s.mu.Unlock()
}

// While handle A's Set waits for its follower's ack, the leader's
// delegation server keeps serving: handle B's Get completes, well inside
// its bounded retry budget, and A's Set is still waiting when it does.
func TestReplicatedReadServedDuringQuorumWait(t *testing.T) {
	base := t.TempDir()
	st, rec, err := replog.Open(filepath.Join(base, "f"), replog.Options{Sync: replog.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gs := &gatedStore{Storage: st}
	m := replica.NewMember(NewKVMachine(64), 0, gs)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsrv := reptrans.NewServer(ln, reptrans.ServerConfig{Member: m, Store: st, Logf: t.Logf})
	defer fsrv.Close()
	r, err := NewReplicatedKV(64, ReplicatedConfig{
		DataDir: filepath.Join(base, "leader"),
		Fsync:   "none",
		Peers:   []string{fsrv.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	rkvWaitFor(t, "peer connected", r.Peers()[0].Healthy)

	a := r.NewClient()
	defer a.Close()
	b := r.NewClientPolicy(RKVPolicy{MaxAttempts: 4, PerTry: 100 * time.Millisecond})
	defer b.Close()
	if err := b.Set(7, 70); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	gs.setGate(gate)
	setA := make(chan error, 1)
	go func() { setA <- a.Set(1, 10) }()
	// finish releases the follower and collects A's result; it runs
	// before the handles close, whichever way the test ends.
	var finishOnce sync.Once
	var errA error
	finish := func() error {
		finishOnce.Do(func() {
			gs.setGate(nil)
			close(gate)
			errA = <-setA
		})
		return errA
	}
	defer finish()
	rkvWaitFor(t, "A's run appended", func() bool { return r.Group().Stats().Proposals == 2 })

	if v, ok, err := b.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("B's Get during A's quorum wait = %d, %v, %v; want 70, true, nil", v, ok, err)
	}
	select {
	case err := <-setA:
		setA <- err
		t.Fatalf("A's Set returned (%v) while its follower held the append", err)
	default:
	}
	if err := finish(); err != nil {
		t.Fatalf("A's Set: %v", err)
	}
	if v, ok, err := b.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) after the release = %d, %v, %v; want 10", v, ok, err)
	}
}
