package expiry

import "testing"

func keysOf(l *lruList) []uint64 {
	var ks []uint64
	for n := l.head; n != nil; n = n.lnext {
		ks = append(ks, n.Key)
	}
	return ks
}

func TestSegLRUPromotionAndVictim(t *testing.T) {
	var s SegLRU
	s.Init(2)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i].Key = uint64(i + 1)
		s.Insert(&nodes[i])
	}
	if s.Len() != 4 {
		t.Fatalf("Len=%d", s.Len())
	}
	// All probationary: victim = oldest insert.
	if v := s.Victim(); v.Key != 1 {
		t.Fatalf("victim = %d, want 1", v.Key)
	}
	// A hit promotes; the hot key is no longer the victim.
	s.Touch(&nodes[0])
	if s.ProtectedLen() != 1 {
		t.Fatalf("ProtectedLen = %d", s.ProtectedLen())
	}
	if v := s.Victim(); v.Key != 2 {
		t.Fatalf("victim after promote = %d, want 2", v.Key)
	}
	// Promotions past the cap demote the protected LRU back.
	s.Touch(&nodes[1])
	s.Touch(&nodes[2]) // cap 2: key 1 demoted to probationary MRU
	if s.ProtectedLen() != 2 {
		t.Fatalf("ProtectedLen = %d, want 2", s.ProtectedLen())
	}
	if nodes[0].seg != segProb {
		t.Fatal("key 1 not demoted")
	}
	// Probationary is now [1, 4] (MRU-first); victim = 4.
	if v := s.Victim(); v.Key != 4 {
		t.Fatalf("victim = %d, want 4", v.Key)
	}
	s.Remove(&nodes[3])
	s.Remove(&nodes[3]) // idempotent
	if s.Len() != 3 {
		t.Fatalf("Len=%d after remove", s.Len())
	}
}

// The scan-resistance property: a long one-shot scan must not displace an
// established hot set.
func TestSegLRUScanResistance(t *testing.T) {
	var s SegLRU
	const hot = 8
	s.Init(hot)
	hotNodes := make([]Node, hot)
	for i := range hotNodes {
		hotNodes[i].Key = uint64(i)
		s.Insert(&hotNodes[i])
		s.Touch(&hotNodes[i]) // establish in protected
	}
	scan := make([]Node, 64)
	for i := range scan {
		scan[i].Key = uint64(1000 + i)
		s.Insert(&scan[i])
		// Capacity pressure: evict a victim per insert once over 2*hot.
		if s.Len() > 2*hot {
			v := s.Victim()
			if v.Key < hot {
				t.Fatalf("scan evicted hot key %d", v.Key)
			}
			s.Remove(v)
		}
	}
	for i := range hotNodes {
		if hotNodes[i].seg != segProt {
			t.Fatalf("hot key %d displaced from protected", i)
		}
	}
}

func TestSegLRUTouchOrdering(t *testing.T) {
	var s SegLRU
	s.Init(4)
	nodes := make([]Node, 3)
	for i := range nodes {
		nodes[i].Key = uint64(i + 1)
		s.Insert(&nodes[i])
		s.Touch(&nodes[i])
	}
	// Protected MRU-first should be [3, 2, 1]; touch 1 → [1, 3, 2].
	s.Touch(&nodes[0])
	got := keysOf(&s.prot)
	want := []uint64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("protected order %v, want %v", got, want)
		}
	}
	if v := s.Victim(); v.Key != 2 {
		t.Fatalf("victim = %d, want protected LRU 2", v.Key)
	}
}

func TestSegLRUAllocFree(t *testing.T) {
	var s SegLRU
	s.Init(8)
	nodes := make([]Node, 32)
	for i := range nodes {
		nodes[i].Key = uint64(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := range nodes {
			s.Insert(&nodes[i])
		}
		for i := range nodes {
			s.Touch(&nodes[i])
		}
		for s.Len() > 0 {
			s.Remove(s.Victim())
		}
	})
	if allocs != 0 {
		t.Fatalf("insert/touch/victim allocated %.1f/run, want 0", allocs)
	}
}
