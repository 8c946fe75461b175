package apps

import (
	"math/bits"
	"math/rand/v2"
)

// kvIndex is the store's key → entry table: open addressing with linear
// probing, at most half full, with backward-shift deletion (no
// tombstones), so a lookup touches one or two adjacent slots and never
// the entries it does not return. It starts small and doubles as entries
// arrive: a store sized for 64 Ki entries holding 4 Ki keys pays for 8 Ki
// slots, not 128 Ki.
//
// Keys come from the network, so the hash is seeded per index: a fixed
// multiplier would let a client pick keys that share one probe run. The
// seed makes slot order a per-process accident, which is why nothing
// iterates the index — EncodeState walks the LRU and eviction takes the
// LRU's victim — and replicas stay byte-identical.
type kvIndex struct {
	slots  []kvSlot // len is a power of two
	n      int
	s0, s1 uint64
}

// kvSlot is empty when e is nil; key duplicates e.node.Key so a probe
// compares keys without loading entries.
type kvSlot struct {
	key uint64
	e   *kvEntry
}

const kvIndexMinSlots = 16

func newKVIndex() kvIndex {
	return kvIndex{slots: make([]kvSlot, kvIndexMinSlots), s0: rand.Uint64(), s1: rand.Uint64() | 1}
}

// home is key's preferred slot: the high and low words of a seeded
// 64×64-bit product, folded.
func (x *kvIndex) home(key uint64) int {
	hi, lo := bits.Mul64(key^x.s0, x.s1)
	return int((hi ^ lo) & uint64(len(x.slots)-1))
}

// find returns key's slot and entry, or, when key is absent, the empty
// slot that ends its probe run and nil.
func (x *kvIndex) find(key uint64) (int, *kvEntry) {
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		if sl := &x.slots[i]; sl.e == nil || sl.key == key {
			return i, sl.e
		}
	}
}

// put adds e under key, which must be absent.
func (x *kvIndex) put(key uint64, e *kvEntry) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	i, _ := x.find(key)
	x.slots[i] = kvSlot{key, e}
	x.n++
}

// deleteAt empties slot i and shifts the rest of its probe run back, so
// every key stays reachable from its home without tombstones: an entry
// moves into the hole unless its home lies cyclically after the hole.
func (x *kvIndex) deleteAt(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].e != nil; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = kvSlot{}
	x.n--
}

// grow doubles the table. The rehash is the one walk over slots; it
// reaches nothing but the new table.
func (x *kvIndex) grow() {
	old := x.slots
	x.slots = make([]kvSlot, 2*len(old))
	for _, sl := range old {
		if sl.e != nil {
			i, _ := x.find(sl.key)
			x.slots[i] = sl
		}
	}
}
