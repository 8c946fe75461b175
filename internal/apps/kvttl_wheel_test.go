package apps

import (
	"sync/atomic"
	"testing"
	"time"
)

// Regression: now+ttl used to wrap past ^uint64(0) — a huge TTL made the
// entry expire immediately (or land on 0, the no-expiry sentinel). The
// deadline must clamp to "effectively never" instead.
func TestSetTTLOverflowClamps(t *testing.T) {
	s := NewKVStore(8)
	s.SetTTL(1, 10, 10, ^uint64(0)) // 10 + max wraps to 9 without the clamp
	if _, ok := s.GetAt(1, 11); !ok {
		t.Fatal("overflowed TTL expired immediately")
	}
	if _, ok := s.GetAt(1, 1<<62); !ok {
		t.Fatal("overflowed TTL expired far before the clamp")
	}
	// The pathological wrap-to-zero: deadline 0 would mean "no expiry",
	// which silently loses the (absurd) intent; the clamp covers it too.
	s.SetTTL(2, 20, 5, ^uint64(0)-4)
	if d := expiryDeadline(5, ^uint64(0)-4); d != maxExpiry {
		t.Fatalf("wrap-to-zero deadline = %d, want clamp %d", d, maxExpiry)
	}
	if _, ok := s.GetAt(2, 1<<62); !ok {
		t.Fatal("wrap-to-zero TTL not clamped")
	}
	// Sanity: the clamp does not break ordinary TTLs.
	s.SetTTL(3, 30, 100, 50)
	if _, ok := s.GetAt(3, 149); !ok {
		t.Fatal("ordinary TTL expired early")
	}
	if _, ok := s.GetAt(3, 150); ok {
		t.Fatal("ordinary TTL failed to expire")
	}
}

// Advancing the clock and draining the wheel must reclaim exactly what a
// full scan would: everything due at now, nothing else, counted once.
func TestSweepExpiredWheelDriven(t *testing.T) {
	s := NewKVStore(1024)
	for k := uint64(0); k < 300; k++ {
		// Deadlines 10..309 spread across level boundaries.
		s.SetTTL(k, k+1, 0, 10+k)
	}
	s.Set(1000, 1) // no expiry: never reclaimed
	if got := sweepTo(s, 9); got != 0 {
		t.Fatalf("sweep before first deadline reclaimed %d", got)
	}
	if got := sweepTo(s, 109); got != 100 {
		t.Fatalf("sweep at 109 reclaimed %d, want 100", got)
	}
	if got := sweepTo(s, 109); got != 0 {
		t.Fatalf("repeat sweep reclaimed %d, want 0", got)
	}
	if got := sweepTo(s, 1<<30); got != 200 {
		t.Fatalf("final sweep reclaimed %d, want 200", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want the one immortal entry", s.Len())
	}
	if s.Expired() != 300 || s.WheelExpired() != 300 {
		t.Fatalf("expired=%d wheel=%d, want 300/300", s.Expired(), s.WheelExpired())
	}
}

// Maintain is the budgeted form: repeated small-budget calls must reach
// the same end state as one unbounded drain.
func TestMaintainBudgeted(t *testing.T) {
	s := NewKVStore(1024)
	for k := uint64(0); k < 200; k++ {
		s.SetTTL(k, 1, 0, 5+k%64)
	}
	s.AdvanceClock(100)
	total := 0
	for i := 0; i < 10000; i++ {
		units := s.Maintain(7)
		if units == 0 {
			break
		}
		total += units
	}
	if s.PendingExpiry() != 0 || s.Len() != 0 {
		t.Fatalf("pending=%d len=%d after budgeted drain", s.PendingExpiry(), s.Len())
	}
	if s.Expired() != 200 {
		t.Fatalf("expired = %d, want 200", s.Expired())
	}
	if total < 200 {
		t.Fatalf("units %d < fired entries", total)
	}
}

func TestTouchSemantics(t *testing.T) {
	s := NewKVStore(8)
	s.SetTTL(1, 11, 0, 10)
	if !s.Touch(1, 5, 20) { // extend to 25
		t.Fatal("touch of live key reported absent")
	}
	if _, ok := s.GetAt(1, 24); !ok {
		t.Fatal("touched key expired at original deadline")
	}
	if s.Touch(1, 25, 10) { // due at 25: touch must expire it, not refresh
		t.Fatal("touch of due key reported present")
	}
	if s.Touch(2, 0, 10) {
		t.Fatal("touch of absent key reported present")
	}
	// Touch with ttl 0 clears the expiry.
	s.SetTTL(3, 33, 0, 10)
	if !s.Touch(3, 5, 0) {
		t.Fatal("clearing touch failed")
	}
	if _, ok := s.GetAt(3, 1<<40); !ok {
		t.Fatal("cleared expiry still fired")
	}
	if s.PendingExpiry() != 0 {
		t.Fatalf("PendingExpiry = %d after clear", s.PendingExpiry())
	}
}

// Plain Set on a TTL'd key must keep the deadline (memcached semantics:
// set replaces, but our historical Set preserved expiry on update — the
// regression pin for that contract).
func TestSetKeepsExistingTTL(t *testing.T) {
	s := NewKVStore(8)
	s.SetTTL(1, 10, 0, 10)
	s.Set(1, 99)
	if v, ok := s.GetAt(1, 9); !ok || v != 99 {
		t.Fatalf("GetAt(9) = %d,%v", v, ok)
	}
	if _, ok := s.GetAt(1, 10); ok {
		t.Fatal("updated entry lost its expiry")
	}
}

// Eviction under capacity pressure must cancel the victim's wheel entry:
// a later Maintain over its old deadline cannot fire a dangling node.
func TestEvictionCancelsWheelEntry(t *testing.T) {
	s := NewKVStore(4)
	for k := uint64(0); k < 4; k++ {
		s.SetTTL(k, 1, 0, 100)
	}
	for k := uint64(10); k < 14; k++ {
		s.Set(k, 1) // evicts all four TTL'd probationary entries
	}
	if s.PendingExpiry() != 0 {
		t.Fatalf("PendingExpiry = %d after eviction, want 0", s.PendingExpiry())
	}
	s.AdvanceClock(1000)
	s.Maintain(0)
	_, _, ev := s.Stats()
	if ev != 4 || s.Expired() != 0 {
		t.Fatalf("evictions=%d expired=%d, want 4/0", ev, s.Expired())
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// Server-owned time end to end: a DelegatedKV with a tick source must
// expire entries through its background hook alone — no client ever
// sweeps — while Gets stay correct throughout.
func TestDelegatedKVServerOwnedExpiry(t *testing.T) {
	var tick atomic.Uint64
	d := NewDelegatedKV(1<<12, 4)
	d.SetTickSource(tick.Load)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 500; k++ {
		c.SetTTLNow(k, k+1, 10+k%50)
	}
	c.Set(9999, 42) // immortal
	tick.Store(1000)
	// The background hook owns reclamation; wait for it to drain the
	// wheel between our polls (each Len call also wakes the server).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Len() == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d after expiry storm, want 1", n)
	}
	if v, ok := c.Get(9999); !ok || v != 42 {
		t.Fatalf("immortal key: %d,%v", v, ok)
	}
	_, _, _, expired := c.Stats()
	if expired != 500 {
		t.Fatalf("expired = %d, want 500", expired)
	}
	if bg := d.Server().Stats(); bg.BackgroundRuns == 0 || bg.BackgroundUnits == 0 {
		t.Fatalf("background counters empty: %+v", bg)
	}
}

// Touch and SetTTLNow over delegation, with the clock advanced by a
// delegated tick (the linearizable form the chaos suites record).
func TestDelegatedKVTouchAndClock(t *testing.T) {
	d := NewDelegatedKV(1<<10, 4)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	c.SetTTLNow(1, 10, 100)
	if !c.Touch(1, 200) {
		t.Fatal("touch missed live key")
	}
	if got := c.AdvanceClock(150); got != 150 {
		t.Fatalf("AdvanceClock = %d", got)
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("touched key dead before extended deadline")
	}
	if got := c.AdvanceClock(200); got != 200 {
		t.Fatalf("AdvanceClock = %d", got)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("key alive past touched deadline")
	}
	if got := c.AdvanceClock(100); got != 200 {
		t.Fatalf("clock went backwards: %d", got)
	}
}

// The scan-resistance property surfaced at the store level: a hot set
// established by Gets must survive a one-shot scan bigger than capacity.
func TestKVStoreScanResistantEviction(t *testing.T) {
	s := NewKVStore(100)
	for k := uint64(0); k < 50; k++ {
		s.Set(k, k)
	}
	for k := uint64(0); k < 50; k++ {
		s.Get(k) // promote the hot set
	}
	for k := uint64(1000); k < 1400; k++ {
		s.Set(k, 1) // scan: 400 one-shot keys through a 100-entry store
	}
	survivors := 0
	for k := uint64(0); k < 50; k++ {
		if _, ok := s.Get(k); ok {
			survivors++
		}
	}
	if survivors != 50 {
		t.Fatalf("scan displaced %d of 50 hot keys", 50-survivors)
	}
}
