package apps

import (
	"sync"
	"time"

	"ffwd/internal/core"
	"ffwd/internal/expiry"
	"ffwd/internal/obs"
)

// KVStore is the memcached-analog: a fixed-capacity hash table of word
// keys and values with scan-resistant segmented-LRU eviction, TTL expiry
// indexed by a hierarchical timer wheel, and hit/miss statistics. The
// sequential core has no synchronization — wrap it in a LockedKV or serve
// it through a DelegatedKV, whose server owns the store's logical clock
// and amortizes expiry into its idle sweeps (server-owned time).
type KVStore struct {
	capacity int
	// index finds a key's entry in one probe (kvindex.go); free holds
	// removed entries for insert to reuse, so steady-state churn
	// allocates nothing (live plus free never exceeds capacity).
	index kvIndex
	free  []*kvEntry
	// lru is the eviction policy: new entries are probationary, a second
	// hit promotes to the protected segment, victims come from the
	// probationary tail first — a scan of one-shot keys cannot flush the
	// hot set.
	lru expiry.SegLRU
	// wheel indexes every entry that carries an expiry deadline; entries
	// are intrusive (kvEntry embeds the node), so scheduling allocates
	// nothing. Advancing the wheel to the clock reclaims due entries in
	// O(due), replacing the old O(n) full-scan sweep.
	wheel expiry.Wheel
	// clock is the store's logical time in ticks; the owner advances it
	// (AdvanceClock) and everything else — lazy expiry, deadline
	// computation, wheel advances — reads it.
	clock uint64

	hits       uint64
	misses     uint64
	evictions  uint64
	expired    uint64
	wheelFired uint64

	// fireFn is the wheel's fire callback, bound once so Maintain
	// allocates nothing.
	fireFn func(*expiry.Node)
}

// kvEntry is one cache line (TestKVEntryOneCacheLine).
type kvEntry struct {
	// node carries the key, the wheel scheduling state (its deadline is
	// the entry's expiry tick; 0 = no expiry) and the LRU links.
	node  expiry.Node
	value uint64
}

// NewKVStore returns a store bounded to capacity entries (≥1).
func NewKVStore(capacity int) *KVStore {
	s := &KVStore{capacity: max(capacity, 1)}
	s.reset()
	return s
}

// reset empties the store and zeroes its clock and counters.
func (s *KVStore) reset() {
	*s = KVStore{capacity: s.capacity, index: newKVIndex()}
	// Protect at most ~80% of capacity so the probationary segment always
	// has churn room under scan pressure.
	s.lru.Init(max(s.capacity*4/5, 1))
	s.fireFn = s.fireExpired
}

// Get looks up key at the store's clock, reclaiming it if expired and
// promoting it in the LRU order otherwise.
func (s *KVStore) Get(key uint64) (uint64, bool) { return s.GetAt(key, s.clock) }

// Set inserts or updates key, evicting at capacity. An update keeps a
// live entry's existing expiry; a dead-but-unreclaimed entry is expired
// first, so the outcome never depends on how far the wheel has drained.
func (s *KVStore) Set(key, value uint64) {
	if _, e := s.live(key, s.clock); e != nil {
		e.value = value
		s.lru.Touch(&e.node)
		return
	}
	s.insert(key, value, 0)
}

// Delete removes key; it reports whether it was present and live (an
// expired entry reads as absent regardless of wheel progress).
func (s *KVStore) Delete(key uint64) bool {
	i, e := s.live(key, s.clock)
	if e == nil {
		return false
	}
	s.remove(i, e)
	return true
}

// Len returns the number of stored entries.
func (s *KVStore) Len() int { return s.index.n }

// Stats returns hits, misses and evictions so far.
func (s *KVStore) Stats() (hits, misses, evictions uint64) {
	return s.hits, s.misses, s.evictions
}

// StoreRows declares the store's counters, once, for every stats sink
// (see obs.Registry). Its arguments are what LockedKV.Stats and
// KVClient.Stats return, so either call can be passed straight through.
func StoreRows(hits, misses, evictions, expired uint64) []obs.Row {
	return []obs.Row{
		{Name: "ffwd_store_hits_total", Key: "store_hits", Help: "Lookups (and touches) that found a live entry.", Value: float64(hits)},
		{Name: "ffwd_store_misses_total", Key: "store_misses", Help: "Lookups (and touches) that found none.", Value: float64(misses)},
		{Name: "ffwd_evict_evictions_total", Key: "store_evictions", Help: "Entries evicted at capacity by the scan-resistant policy.", Value: float64(evictions)},
		{Name: "ffwd_expiry_expired_total", Key: "store_expired", Help: "Entries reclaimed because their TTL deadline passed.", Value: float64(expired)},
	}
}

// live is every op's one lookup: key's slot and entry if it is present
// and not due at now. A due entry it finds is reclaimed on the spot and
// reads as absent, the correctness backstop for a wheel that has not
// reached it yet.
func (s *KVStore) live(key, now uint64) (int, *kvEntry) {
	i, e := s.index.find(key)
	if e == nil {
		return i, nil
	}
	if d := e.node.Deadline(); d != 0 && now >= d {
		s.remove(i, e)
		s.expired++
		return i, nil
	}
	return i, e
}

// insert adds a new entry (caller has established key is absent), making
// room first, reusing a removed entry if there is one, and scheduling its
// expiry if it has one.
func (s *KVStore) insert(key, value, deadline uint64) *kvEntry {
	for s.index.n >= s.capacity {
		if !s.evictOne() {
			break
		}
	}
	var e *kvEntry
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = new(kvEntry)
	}
	e.node.Key, e.value = key, value
	s.index.put(key, e)
	s.lru.Insert(&e.node)
	if deadline != 0 {
		s.wheel.Schedule(&e.node, deadline)
	}
	return e
}

// evictOne removes the policy's victim (probationary tail first), O(1).
func (s *KVStore) evictOne() bool {
	n := s.lru.Victim()
	if n == nil {
		return false
	}
	s.remove(s.index.find(n.Key))
	s.evictions++
	return true
}

// remove unlinks the entry in slot i from the policy, the wheel and the
// index, and keeps it for reuse.
func (s *KVStore) remove(i int, e *kvEntry) {
	s.lru.Remove(&e.node)
	s.wheel.Cancel(&e.node)
	s.index.deleteAt(i)
	s.free = append(s.free, e)
}

// KV is the common interface of the synchronized store variants.
type KV interface {
	Get(key uint64) (uint64, bool)
	Set(key, value uint64)
	Delete(key uint64) bool
}

// LockedKV is the memcached-1.4 structure: one global lock around the
// whole store (the cache_lock).
type LockedKV struct {
	mu sync.Locker
	s  *KVStore
}

// NewLockedKV wraps a fresh store of the given capacity in mkLock().
func NewLockedKV(capacity int, mkLock func() sync.Locker) *LockedKV {
	return &LockedKV{mu: mkLock(), s: NewKVStore(capacity)}
}

// Get looks up key under the lock.
func (l *LockedKV) Get(key uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Get(key)
}

// Set stores key under the lock.
func (l *LockedKV) Set(key, value uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Set(key, value)
}

// Delete removes key under the lock.
func (l *LockedKV) Delete(key uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Delete(key)
}

// SetTTL stores key with expiry at now+ttl under the lock.
func (l *LockedKV) SetTTL(key, value, now, ttl uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.SetTTL(key, value, now, ttl)
}

// Touch refreshes key's expiry under the lock.
func (l *LockedKV) Touch(key, now, ttl uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Touch(key, now, ttl)
}

// AdvanceClock moves the store clock forward under the lock and drains
// every newly due wheel entry (the caller IS the sweeper here — there is
// no owning server goroutine to do it). Returns the clock after the
// advance, which never goes backwards.
func (l *LockedKV) AdvanceClock(now uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.AdvanceClock(now)
	l.s.Maintain(0)
	return l.s.Clock()
}

// GetAt advances the store clock to now and looks up key, under one
// lock acquisition. This is the client-driven model's read path: with
// no owning goroutine to advance time, every read carries its own tick,
// so TTL'd entries expire even for pure-read workloads. Reclaim of
// other due entries stays lazy (the next AdvanceClock drains them);
// only the read key's liveness is decided here.
func (l *LockedKV) GetAt(key, now uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.AdvanceClock(now)
	return l.s.Get(key)
}

// Clock reads the store clock under the lock.
func (l *LockedKV) Clock() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Clock()
}

// Stats reads the counters under the lock.
func (l *LockedKV) Stats() (hits, misses, evictions, expired uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, m, e := l.s.Stats()
	return h, m, e, l.s.Expired()
}

// Len returns the number of stored entries, under the lock.
func (l *LockedKV) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Len()
}

// DelegatedKV serves a KVStore through a ffwd delegation server: the
// paper's memcached port, where every access to the delegated structure
// is delegated. The server also owns the store's time: its background
// maintenance hook advances the logical clock (when a tick source is
// installed) and drains the timer wheel between request sweeps, so expiry
// and eviction are server-side work that rides the idle ladder instead of
// contended client scans.
type DelegatedKV struct {
	srv *core.Server
	s   *KVStore

	// tick, if set before Start, supplies the current logical tick to the
	// background maintenance hook. Read only on the server goroutine.
	tick func() uint64

	fidGet, fidSet, fidDelete, fidLen core.FuncID
	fidSetTTLNow, fidTouch, fidTick   core.FuncID
	fidStats                          [4]core.FuncID
}

// NewDelegatedKV builds the store and its server (not yet started).
func NewDelegatedKV(capacity, maxClients int) *DelegatedKV {
	return NewDelegatedKVConfig(capacity, core.Config{MaxClients: maxClients})
}

// NewDelegatedKVConfig is NewDelegatedKV with full control of the
// delegation server configuration (idle policy, group size, ...). Unless
// the caller supplies its own Background hook, the store's maintenance
// (clock advance + wheel drain) is installed as the server's background
// work.
func NewDelegatedKVConfig(capacity int, cfg core.Config) *DelegatedKV {
	d := &DelegatedKV{s: NewKVStore(capacity)}
	if cfg.Background == nil {
		cfg.Background = d.maintain
	}
	d.srv = core.NewServer(cfg)
	d.fidGet = d.srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		v, ok := d.s.Get(a[0])
		if !ok {
			return kvMissSentinel
		}
		return v
	})
	d.fidSet = d.srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		d.s.Set(a[0], a[1])
		return 0
	})
	d.fidDelete = d.srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		if d.s.Delete(a[0]) {
			return 1
		}
		return 0
	})
	d.fidLen = d.srv.Register(func(*[core.MaxArgs]uint64) uint64 {
		return uint64(d.s.Len())
	})
	// Server-owned-time variants: the deadline is computed from the
	// store's clock at apply time, so wire clients never ship absolute
	// ticks (and the linearization point fixes the deadline).
	d.fidSetTTLNow = d.srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		d.s.SetTTL(a[0], a[1], d.s.Clock(), a[2])
		return 0
	})
	d.fidTouch = d.srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		if d.s.Touch(a[0], d.s.Clock(), a[1]) {
			return 1
		}
		return 0
	})
	d.fidTick = d.srv.Register(func(a *[core.MaxArgs]uint64) uint64 {
		d.s.AdvanceClock(a[0])
		return d.s.Clock()
	})
	d.fidStats[0] = d.srv.Register(func(*[core.MaxArgs]uint64) uint64 { return d.s.hits })
	d.fidStats[1] = d.srv.Register(func(*[core.MaxArgs]uint64) uint64 { return d.s.misses })
	d.fidStats[2] = d.srv.Register(func(*[core.MaxArgs]uint64) uint64 { return d.s.evictions })
	d.fidStats[3] = d.srv.Register(func(*[core.MaxArgs]uint64) uint64 { return d.s.expired })
	return d
}

// maintain is the server's background hook: sample the tick source into
// the clock, then drain the wheel toward it within budget. Runs on the
// server goroutine, so it touches the store without synchronization.
func (d *DelegatedKV) maintain(budget int) int {
	if d.tick != nil {
		d.s.AdvanceClock(d.tick())
	}
	return d.s.Maintain(budget)
}

// SetTickSource installs the clock sampler the background hook uses.
// Must be called before Start.
func (d *DelegatedKV) SetTickSource(tick func() uint64) { d.tick = tick }

// Store exposes the underlying sequential store. Only safe to touch while
// the server is stopped (tests, drain reports), or from a function
// registered on Server(), which runs on the server goroutine.
func (d *DelegatedKV) Store() *KVStore { return d.s }

// kvMissSentinel marks a missing key in the one-word response channel;
// values equal to it cannot be stored via the delegated client.
const kvMissSentinel = ^uint64(0)

// Start launches the delegation server.
func (d *DelegatedKV) Start() error { return d.srv.Start() }

// Stop halts the delegation server.
func (d *DelegatedKV) Stop() { d.srv.Stop() }

// Server exposes the underlying delegation server, for supervision and
// stats reporting (e.g. ffwdserve's shutdown summary).
func (d *DelegatedKV) Server() *core.Server { return d.srv }

// KVClient is a per-goroutine handle to a DelegatedKV.
type KVClient struct {
	d *DelegatedKV
	c *core.Client
}

// NewClient allocates a delegation channel.
func (d *DelegatedKV) NewClient() (*KVClient, error) {
	c, err := d.srv.NewClient()
	if err != nil {
		return nil, err
	}
	return &KVClient{d: d, c: c}, nil
}

// Get looks up key.
func (k *KVClient) Get(key uint64) (uint64, bool) {
	v := k.c.Delegate1(k.d.fidGet, key)
	if v == kvMissSentinel {
		return 0, false
	}
	return v, true
}

// Set stores value under key. Values equal to the miss sentinel are
// rejected by panicking — they would be indistinguishable from a miss.
func (k *KVClient) Set(key, value uint64) {
	if value == kvMissSentinel {
		panic("apps: KVClient.Set of the sentinel value")
	}
	k.c.Delegate2(k.d.fidSet, key, value)
}

// Delete removes key; it reports whether it was present.
func (k *KVClient) Delete(key uint64) bool {
	return k.c.Delegate1(k.d.fidDelete, key) == 1
}

// Len returns the store size.
func (k *KVClient) Len() int { return int(k.c.Delegate0(k.d.fidLen)) }

// SetTTLNow stores value under key expiring ttl ticks after the server's
// clock as of the apply (server-owned time; ttl 0 means no expiry).
func (k *KVClient) SetTTLNow(key, value, ttl uint64) {
	if value == kvMissSentinel {
		panic("apps: KVClient.SetTTLNow of the sentinel value")
	}
	k.c.Delegate(k.d.fidSetTTLNow, key, value, ttl)
}

// Touch refreshes key's expiry to ttl ticks after the server's clock
// (ttl 0 clears the expiry), promoting it like a hit. It reports whether
// the key was present and live.
func (k *KVClient) Touch(key, ttl uint64) bool {
	return k.c.Delegate2(k.d.fidTouch, key, ttl) == 1
}

// AdvanceClock moves the store's logical clock forward (monotone) and
// returns the clock after the advance. The delegated apply is the
// linearization point recorded by the TTL chaos suites.
func (k *KVClient) AdvanceClock(now uint64) uint64 {
	return k.c.Delegate1(k.d.fidTick, now)
}

// GetRetry is Get with bounded per-attempt waits and backoff, for use
// against a supervised server that may crash and restart mid-request.
// Exactly-once semantics hold across the retries: the lookup observes
// the store once no matter how many waits it took.
func (k *KVClient) GetRetry(p core.RetryPolicy, perTry time.Duration, key uint64) (uint64, bool, error) {
	v, err := k.c.DelegateRetry(p, perTry, k.d.fidGet, key)
	if err != nil {
		return 0, false, err
	}
	if v == kvMissSentinel {
		return 0, false, nil
	}
	return v, true, nil
}

// SetRetry is Set under a retry policy; the write lands exactly once
// even if the server crashes between applying it and responding.
func (k *KVClient) SetRetry(p core.RetryPolicy, perTry time.Duration, key, value uint64) error {
	if value == kvMissSentinel {
		panic("apps: KVClient.SetRetry of the sentinel value")
	}
	_, err := k.c.DelegateRetry(p, perTry, k.d.fidSet, key, value)
	return err
}

// SetTTLNowRetry is SetTTLNow under a retry policy.
func (k *KVClient) SetTTLNowRetry(p core.RetryPolicy, perTry time.Duration, key, value, ttl uint64) error {
	if value == kvMissSentinel {
		panic("apps: KVClient.SetTTLNowRetry of the sentinel value")
	}
	_, err := k.c.DelegateRetry(p, perTry, k.d.fidSetTTLNow, key, value, ttl)
	return err
}

// TouchRetry is Touch under a retry policy.
func (k *KVClient) TouchRetry(p core.RetryPolicy, perTry time.Duration, key, ttl uint64) (bool, error) {
	v, err := k.c.DelegateRetry(p, perTry, k.d.fidTouch, key, ttl)
	if err != nil {
		return false, err
	}
	return v == 1, nil
}

// AdvanceClockRetry is AdvanceClock under a retry policy.
func (k *KVClient) AdvanceClockRetry(p core.RetryPolicy, perTry time.Duration, now uint64) (uint64, error) {
	return k.c.DelegateRetry(p, perTry, k.d.fidTick, now)
}

// DeleteRetry is Delete under a retry policy. The reported presence is
// the first (only) application's answer — a crash-induced re-delivery is
// answered from the server's ledger, so a successful delete is never
// double-counted as a miss.
func (k *KVClient) DeleteRetry(p core.RetryPolicy, perTry time.Duration, key uint64) (bool, error) {
	v, err := k.c.DelegateRetry(p, perTry, k.d.fidDelete, key)
	if err != nil {
		return false, err
	}
	return v == 1, nil
}

// Stats reads the hit/miss/eviction/expiry counters (four single-word
// requests; a consistent snapshot needs a quiescent store, as with any
// sharded metric read).
func (k *KVClient) Stats() (hits, misses, evictions, expired uint64) {
	return k.c.Delegate0(k.d.fidStats[0]),
		k.c.Delegate0(k.d.fidStats[1]),
		k.c.Delegate0(k.d.fidStats[2]),
		k.c.Delegate0(k.d.fidStats[3])
}
