package apps

import (
	"slices"
	"testing"
	"unsafe"

	"ffwd/internal/expiry"
)

// An entry is one 64-byte cache line, so a hit loads one line past the
// index slot (it used to be 72 bytes, an 80-byte size class straddling
// two lines).
func TestKVEntryOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(expiry.Node{}); got != 56 {
		t.Fatalf("expiry.Node is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(kvEntry{}); got != 64 {
		t.Fatalf("kvEntry is %d bytes, want 64", got)
	}
}

// checkIndex verifies the linear-probing invariant — every slot between
// an entry's home and its position is occupied — and the count.
func checkIndex(t testing.TB, x *kvIndex) {
	t.Helper()
	mask := len(x.slots) - 1
	n := 0
	for j, sl := range x.slots {
		if sl.e == nil {
			continue
		}
		n++
		if sl.e.node.Key != sl.key {
			t.Fatalf("slot %d holds key %d for entry %d", j, sl.key, sl.e.node.Key)
		}
		for i := x.home(sl.key); i != j; i = (i + 1) & mask {
			if x.slots[i].e == nil {
				t.Fatalf("key %#x at slot %d unreachable: slot %d empty", sl.key, j, i)
			}
		}
	}
	if n != x.n || 2*n > len(x.slots) {
		t.Fatalf("%d entries in %d slots, count says %d", n, len(x.slots), x.n)
	}
}

func maxProbe(x *kvIndex) int {
	m := 0
	for j, sl := range x.slots {
		if sl.e != nil {
			m = max(m, (j-x.home(sl.key))&(len(x.slots)-1))
		}
	}
	return m
}

func putKey(x *kvIndex, key uint64) *kvEntry {
	e := &kvEntry{value: key}
	e.node.Key = key
	x.put(key, e)
	return e
}

func delKey(x *kvIndex, key uint64) bool {
	i, e := x.find(key)
	if e != nil {
		x.deleteAt(i)
	}
	return e != nil
}

// fibMul is the Fibonacci-hashing multiplier, 2^64 / golden ratio.
const fibMul = 0x9E3779B97F4A7C15

// keysHomedAt returns n keys whose home slot is h.
func keysHomedAt(x *kvIndex, h, n int) []uint64 {
	var ks []uint64
	for k := uint64(1); len(ks) < n; k++ {
		if x.home(k) == h {
			ks = append(ks, k)
		}
	}
	return ks
}

// Backward-shift deletion across the wrap-around: a probe run that starts
// in the last slot continues at slot 0, and deleting its head must pull
// the wrapped entries back across the boundary.
func TestKVIndexDeleteAcrossWrap(t *testing.T) {
	x := newKVIndex()
	last := len(x.slots) - 1
	run := keysHomedAt(&x, last, 3)  // slots last, 0, 1
	zero := keysHomedAt(&x, 0, 1)[0] // probes past them to slot 2
	for _, k := range append(run, zero) {
		putKey(&x, k)
	}
	if i, _ := x.find(zero); i != 2 {
		t.Fatalf("setup: key homed at 0 sits at slot %d, want 2", i)
	}
	delKey(&x, run[0])
	checkIndex(t, &x)
	for k, want := range map[uint64]int{run[1]: last, run[2]: 0, zero: 1} {
		if i, e := x.find(k); e == nil || i != want {
			t.Fatalf("after delete, key %d at slot %d (found %v), want %d", k, i, e != nil, want)
		}
	}
	if x.slots[2].e != nil {
		t.Fatal("slot 2 not emptied by the shift")
	}
	for _, k := range []uint64{run[1], zero, run[2]} {
		if !delKey(&x, k) {
			t.Fatalf("key %d lost", k)
		}
		checkIndex(t, &x)
	}
	if x.n != 0 {
		t.Fatalf("n = %d after deleting everything", x.n)
	}
}

// Keys 0 and 2^64-1 are ordinary keys: neither doubles as an empty-slot
// marker.
func TestKVIndexExtremeKeys(t *testing.T) {
	x := newKVIndex()
	for _, k := range []uint64{0, ^uint64(0)} {
		if _, e := x.find(k); e != nil {
			t.Fatalf("key %#x found in an empty index", k)
		}
		e := putKey(&x, k)
		if _, got := x.find(k); got != e {
			t.Fatalf("key %#x not found after put", k)
		}
	}
	checkIndex(t, &x)
	if !delKey(&x, 0) || delKey(&x, 0) {
		t.Fatal("key 0 delete")
	}
	if _, e := x.find(^uint64(0)); e == nil {
		t.Fatal("deleting key 0 lost key 2^64-1")
	}
}

func TestKVIndexGrowthKeepsEntries(t *testing.T) {
	x := newKVIndex()
	const n = 10000
	entries := make(map[uint64]*kvEntry, n)
	for k := uint64(0); k < n; k++ {
		key := k * fibMul
		entries[key] = putKey(&x, key)
	}
	checkIndex(t, &x)
	if len(x.slots) != 1<<15 {
		t.Fatalf("%d entries grew the table to %d slots, want %d", n, len(x.slots), 1<<15)
	}
	for key, e := range entries {
		if _, got := x.find(key); got != e {
			t.Fatalf("key %#x lost by growth", key)
		}
	}
}

// Seeding: keys chosen so a fixed Fibonacci multiplier sends every one of
// them to slot 0 — under both the top-bits and the low-bits reading of the
// product — still spread, because the product the index folds depends on
// a per-index seed the chooser does not know. Linear probing at load ½
// exceeds 32 probes for 1–2 % of seeds even on random keys, so the bound
// is on the median of nine freshly seeded indexes.
func TestKVIndexSeededAgainstFibonacciCollisions(t *testing.T) {
	inv := uint64(fibMul) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - fibMul*inv
	}
	var probes []int
	for range 9 {
		x := newKVIndex()
		for i := uint64(0); i < 4096; i++ {
			key := inv * (i << 32)
			if p := key * fibMul; p>>51 != 0 || p&(1<<32-1) != 0 {
				t.Fatalf("key %#x does not collide under the fixed multiplier", key)
			}
			putKey(&x, key)
		}
		checkIndex(t, &x)
		probes = append(probes, maxProbe(&x))
	}
	slices.Sort(probes)
	if probes[4] > 32 {
		t.Fatalf("max probe lengths %v over 4096 adversarial keys, want a median ≤ 32", probes)
	}
}

// FuzzKVIndex runs put/find/delete sequences against a Go map. Each op is
// three bytes: a kind and two bytes spread to the ends of the key, so
// short inputs repeat keys and reach both 0 and 2^64-1. The seeds come
// from the input too, so the fuzzer steers collisions.
func FuzzKVIndex(f *testing.F) {
	f.Add(uint64(0), uint64(1), []byte{0, 0, 0, 0x80, 0xff, 0xff, 2, 0, 0, 1, 0, 0})
	f.Add(uint64(7), uint64(fibMul), []byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 2, 1, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, s0, s1 uint64, ops []byte) {
		x := newKVIndex()
		x.s0, x.s1 = s0, s1|1
		ref := map[uint64]*kvEntry{}
		for len(ops) >= 3 {
			key := uint64(ops[1]) | uint64(ops[2])<<56
			if ops[0]&0x80 != 0 {
				key = ^key
			}
			_, got := x.find(key)
			if got != ref[key] {
				t.Fatalf("find(%#x) = %p, want %p", key, got, ref[key])
			}
			switch ops[0] % 3 {
			case 0:
				if got == nil {
					ref[key] = putKey(&x, key)
				}
			case 1:
				if delKey(&x, key) != (got != nil) {
					t.Fatalf("delete(%#x) disagrees with find", key)
				}
				delete(ref, key)
			}
			ops = ops[3:]
			if x.n != len(ref) {
				t.Fatalf("n = %d, map holds %d", x.n, len(ref))
			}
		}
		checkIndex(t, &x)
		for key, e := range ref {
			if _, got := x.find(key); got != e {
				t.Fatalf("key %#x lost", key)
			}
		}
	})
}
