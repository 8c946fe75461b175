package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"ffwd/internal/expiry"
)

// refKVStore is KVStore as it was before the open-addressed index: a Go
// map from key to a heap-allocated entry, and a lazy-expiry check that
// looks the key up before the op looks it up again. It is the reference
// TestKVStoreMatchesMapReference runs the store against.
type refKVStore struct {
	capacity int
	table    map[uint64]*kvEntry
	lru      expiry.SegLRU
	wheel    expiry.Wheel
	clock    uint64

	hits, misses, evictions, expired, wheelFired uint64
}

func newRefKVStore(capacity int) *refKVStore {
	if capacity < 1 {
		capacity = 1
	}
	s := &refKVStore{capacity: capacity, table: make(map[uint64]*kvEntry, capacity)}
	protCap := capacity * 4 / 5
	if protCap < 1 {
		protCap = 1
	}
	s.lru.Init(protCap)
	return s
}

func (s *refKVStore) Get(key uint64) (uint64, bool) {
	s.expireIfDue(key, s.clock)
	e, ok := s.table[key]
	if !ok {
		s.misses++
		return 0, false
	}
	s.hits++
	s.lru.Touch(&e.node)
	return e.value, true
}

func (s *refKVStore) Set(key, value uint64) {
	s.expireIfDue(key, s.clock)
	if e, ok := s.table[key]; ok {
		e.value = value
		s.lru.Touch(&e.node)
		return
	}
	s.insert(key, value, 0)
}

func (s *refKVStore) Delete(key uint64) bool {
	s.expireIfDue(key, s.clock)
	e, ok := s.table[key]
	if !ok {
		return false
	}
	s.removeNode(&e.node)
	return true
}

func (s *refKVStore) insert(key, value, deadline uint64) {
	for len(s.table) >= s.capacity {
		n := s.lru.Victim()
		if n == nil {
			break
		}
		s.removeNode(n)
		s.evictions++
	}
	e := &kvEntry{value: value}
	e.node.Key = key
	s.table[key] = e
	s.lru.Insert(&e.node)
	if deadline != 0 {
		s.wheel.Schedule(&e.node, deadline)
	}
}

func (s *refKVStore) removeNode(n *expiry.Node) {
	s.lru.Remove(n)
	s.wheel.Cancel(n)
	delete(s.table, n.Key)
}

func (s *refKVStore) SetTTL(key, value uint64, now, ttl uint64) {
	s.expireIfDue(key, now)
	deadline := expiryDeadline(now, ttl)
	if e, ok := s.table[key]; ok {
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

func (s *refKVStore) Touch(key uint64, now, ttl uint64) bool {
	s.expireIfDue(key, now)
	e, ok := s.table[key]
	if !ok {
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

func (s *refKVStore) GetAt(key, now uint64) (uint64, bool) {
	s.expireIfDue(key, now)
	return s.Get(key)
}

func (s *refKVStore) AdvanceClock(now uint64) {
	if now > s.clock {
		s.clock = now
	}
}

func (s *refKVStore) Maintain(budget int) int {
	if s.wheel.Now() >= s.clock {
		return 0
	}
	return s.wheel.Advance(s.clock, budget, s.fireExpired)
}

func (s *refKVStore) fireExpired(n *expiry.Node) {
	e, ok := s.table[n.Key]
	if !ok || &e.node != n {
		return
	}
	s.lru.Remove(n)
	delete(s.table, n.Key)
	s.expired++
	s.wheelFired++
}

func (s *refKVStore) expireIfDue(key, now uint64) {
	e, ok := s.table[key]
	if !ok {
		return
	}
	d := e.node.Deadline()
	if d == 0 || now < d {
		return
	}
	s.removeNode(&e.node)
	s.expired++
}

func (s *refKVStore) EncodeState() []byte {
	buf := make([]byte, 0, 16+32*len(s.table))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.table)))
	buf = binary.LittleEndian.AppendUint64(buf, s.clock)
	s.lru.Each(func(n *expiry.Node, protected bool) {
		seg := uint64(0)
		if protected {
			seg = 1
		}
		buf = binary.LittleEndian.AppendUint64(buf, n.Key)
		buf = binary.LittleEndian.AppendUint64(buf, s.table[n.Key].value)
		buf = binary.LittleEndian.AppendUint64(buf, n.Deadline())
		buf = binary.LittleEndian.AppendUint64(buf, seg)
	})
	return buf
}

func (s *refKVStore) RestoreState(data []byte) {
	*s = *newRefKVStore(s.capacity)
	if len(data) < 16 {
		return
	}
	n := binary.LittleEndian.Uint64(data)
	s.clock = binary.LittleEndian.Uint64(data[8:])
	for off, i := 16, uint64(0); i < n && off+32 <= len(data); i, off = i+1, off+32 {
		e := &kvEntry{value: binary.LittleEndian.Uint64(data[off+8:])}
		e.node.Key = binary.LittleEndian.Uint64(data[off:])
		s.table[e.node.Key] = e
		s.lru.Insert(&e.node)
		if binary.LittleEndian.Uint64(data[off+24:]) == 1 {
			s.lru.Touch(&e.node)
		}
		if d := binary.LittleEndian.Uint64(data[off+16:]); d != 0 {
			s.wheel.Schedule(&e.node, d)
		}
	}
}

// TestKVStoreChurnAllocFree pins "steady state allocates nothing" for a
// full store: a miss-Set that evicts, a TTL'd insert, a clock advance
// whose Maintain fires it, a delete and re-insert, a touch and a missing
// get. Removed entries are recycled, so none of it reaches the heap.
func TestKVStoreChurnAllocFree(t *testing.T) {
	const capacity = 256
	s := NewKVStore(capacity)
	for k := uint64(0); k < capacity; k++ {
		s.Set(k, k)
	}
	k := uint64(capacity)
	cycle := func() {
		s.Set(k, 1)
		s.SetTTL(k+1, 2, s.Clock(), 3)
		s.AdvanceClock(s.Clock() + 4)
		s.Maintain(0)
		s.Delete(k)
		s.Set(k, 3)
		s.Touch(k, s.Clock(), 1<<20)
		s.Get(k + 2)
		k += 4
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("churn cycle allocates %.2f objects per run, want 0", n)
	}
	if _, _, evictions := s.Stats(); evictions < 1000 || s.WheelExpired() < 1000 {
		t.Fatalf("evictions=%d wheel expiries=%d: the cycle did not churn", evictions, s.WheelExpired())
	}
}

// TestKVStoreMatchesMapReference runs seeded random op streams against
// the store and the map-based reference and requires, after every op,
// the same return values, counters, sizes and snapshot bytes. TTLs are a
// few ticks and the clock moves a tick or two at a time, so lazy expiry
// and the wheel race for the same entries; Maintain runs with budgets 0
// (unbounded), 1 and 32. Halfway through, both stores round-trip through
// RestoreState and the stream continues.
func TestKVStoreMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 4096} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				ops := 6000
				if capacity == 4096 {
					ops = 2500 // every op compares a snapshot of up to 4096 entries
				}
				diffKVStream(t, capacity, seed, ops)
			})
		}
	}
}

func diffKVStream(t *testing.T, capacity int, seed uint64, ops int) {
	rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
	s, ref := NewKVStore(capacity), newRefKVStore(capacity)
	keys := uint64(4 * capacity)
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for i := 0; i < ops; i++ {
		key := rng.Uint64N(keys)
		val := rng.Uint64()
		ttl := rng.Uint64N(6) // 0 = no expiry
		// Caller-supplied times straddle the store clock.
		now := ref.clock + rng.Uint64N(4)
		if now >= 2 {
			now -= 2
		}
		var op string
		var got, want [2]uint64
		switch r := rng.IntN(100); {
		case r < 20:
			op = "Get"
			v, ok := s.Get(key)
			got = [2]uint64{v, b2u(ok)}
			v, ok = ref.Get(key)
			want = [2]uint64{v, b2u(ok)}
		case r < 35:
			op = "Set"
			s.Set(key, val)
			ref.Set(key, val)
		case r < 50:
			op = "SetTTL"
			s.SetTTL(key, val, now, ttl)
			ref.SetTTL(key, val, now, ttl)
		case r < 58:
			op = "Touch"
			got[0], want[0] = b2u(s.Touch(key, now, ttl)), b2u(ref.Touch(key, now, ttl))
		case r < 66:
			op = "Delete"
			got[0], want[0] = b2u(s.Delete(key)), b2u(ref.Delete(key))
		case r < 76:
			op = "GetAt"
			v, ok := s.GetAt(key, now)
			got = [2]uint64{v, b2u(ok)}
			v, ok = ref.GetAt(key, now)
			want = [2]uint64{v, b2u(ok)}
		case r < 88:
			op = "AdvanceClock"
			tick := ref.clock + rng.Uint64N(3)
			s.AdvanceClock(tick)
			ref.AdvanceClock(tick)
		default:
			op = "Maintain"
			budget := []int{0, 1, 32}[rng.IntN(3)]
			got[0], want[0] = uint64(s.Maintain(budget)), uint64(ref.Maintain(budget))
		}
		if got != want {
			t.Fatalf("op %d %s(key=%d): store returned %v, reference %v", i, op, key, got, want)
		}
		h, m, e := s.Stats()
		rh, rm, re := ref.hits, ref.misses, ref.evictions
		if s.Len() != len(ref.table) || h != rh || m != rm || e != re || s.Clock() != ref.clock ||
			s.Expired() != ref.expired || s.WheelExpired() != ref.wheelFired || s.PendingExpiry() != ref.wheel.Len() {
			t.Fatalf("op %d %s(key=%d): store len=%d stats=%d/%d/%d expired=%d/%d pending=%d, reference len=%d stats=%d/%d/%d expired=%d/%d pending=%d",
				i, op, key, s.Len(), h, m, e, s.Expired(), s.WheelExpired(), s.PendingExpiry(),
				len(ref.table), rh, rm, re, ref.expired, ref.wheelFired, ref.wheel.Len())
		}
		img := s.EncodeState()
		if !bytes.Equal(img, ref.EncodeState()) {
			t.Fatalf("op %d %s(key=%d): snapshots differ", i, op, key)
		}
		if i == ops/2 {
			s.RestoreState(img)
			ref.RestoreState(img)
			if !bytes.Equal(s.EncodeState(), img) {
				t.Fatal("RestoreState did not reproduce the snapshot")
			}
		}
	}
}
