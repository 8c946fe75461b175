package apps

import "ffwd/internal/expiry"

// TTL (expiry) support for KVStore — the memcached feature that makes Get
// misses on expired keys. Time is a logical tick clock owned by the store
// (the delegation server advances it; no time syscalls in delegated
// functions). Every entry with a deadline is indexed in a hierarchical
// timer wheel, so reclaiming due entries is O(due) wheel work — run
// incrementally by the server's background hook (Maintain) — rather than
// the old O(n) full scan. Lazy per-access expiry is retained as the
// correctness backstop: a parked server runs no maintenance, but an
// access can never observe a due entry.

// maxExpiry is the largest representable deadline: now+ttl sums that
// overflow clamp here ("effectively never") instead of wrapping around
// into the past — or worse, onto 0, the no-expiry sentinel.
const maxExpiry = ^uint64(0) - 1

// expiryDeadline computes now+ttl with the overflow clamp; ttl 0 means no
// expiry (deadline 0).
func expiryDeadline(now, ttl uint64) uint64 {
	if ttl == 0 {
		return 0
	}
	d := now + ttl
	if d < now || d > maxExpiry {
		return maxExpiry
	}
	return d
}

// SetTTL inserts or updates key with an expiry at tick now+ttl (clamped
// to maxExpiry on overflow). A ttl of zero means no expiry (like Set,
// but clearing any previous deadline).
func (s *KVStore) SetTTL(key, value uint64, now, ttl uint64) {
	deadline := expiryDeadline(now, ttl)
	if _, e := s.live(key, now); e != nil {
		e.value = value
		s.lru.Touch(&e.node)
		if deadline == 0 {
			s.wheel.Cancel(&e.node)
		} else {
			s.wheel.Schedule(&e.node, deadline)
		}
		return
	}
	s.insert(key, value, deadline)
}

// Touch refreshes key's expiry to now+ttl (ttl 0 clears it), promoting it
// in the LRU order like a hit. It reports whether the key was present and
// live — the memcached TOUCH verb.
func (s *KVStore) Touch(key uint64, now, ttl uint64) bool {
	_, e := s.live(key, now)
	if e == nil {
		s.misses++
		return false
	}
	s.hits++
	s.lru.Touch(&e.node)
	if d := expiryDeadline(now, ttl); d == 0 {
		s.wheel.Cancel(&e.node)
	} else {
		s.wheel.Schedule(&e.node, d)
	}
	return true
}

// GetAt looks up key at logical time now, or at the store's clock if
// that is later, reclaiming it if expired and promoting it in the LRU
// order otherwise.
func (s *KVStore) GetAt(key, now uint64) (uint64, bool) {
	_, e := s.live(key, max(now, s.clock))
	if e == nil {
		s.misses++
		return 0, false
	}
	s.hits++
	s.lru.Touch(&e.node)
	return e.value, true
}

// AdvanceClock moves the store's logical clock forward to now (monotone:
// earlier ticks are ignored).
func (s *KVStore) AdvanceClock(now uint64) {
	if now > s.clock {
		s.clock = now
	}
}

// Clock returns the store's logical time.
func (s *KVStore) Clock() uint64 { return s.clock }

// Maintain advances the timer wheel toward the clock, reclaiming every
// entry whose deadline has passed, spending at most budget units (fired
// entries + cascade relinks; budget <= 0 means unbounded). It returns the
// units spent; 0 means the wheel is fully caught up. This is the
// delegation server's background work: expiry rides otherwise-empty
// sweeps instead of being a contended client scan.
func (s *KVStore) Maintain(budget int) int {
	if s.wheel.Now() >= s.clock {
		return 0
	}
	return s.wheel.Advance(s.clock, budget, s.fireFn)
}

// PendingExpiry returns the number of entries with a scheduled deadline.
func (s *KVStore) PendingExpiry() int { return s.wheel.Len() }

// fireExpired reclaims an entry whose wheel deadline has passed. The node
// is already unscheduled when the wheel fires it, and every removal
// cancels, so it is always a live entry's.
func (s *KVStore) fireExpired(n *expiry.Node) {
	s.remove(s.index.find(n.Key))
	s.expired++
	s.wheelFired++
}

// Expired returns how many entries expiry has reclaimed (lazy + wheel).
func (s *KVStore) Expired() uint64 { return s.expired }

// WheelExpired returns how many of those the background wheel reclaimed.
func (s *KVStore) WheelExpired() uint64 { return s.wheelFired }
