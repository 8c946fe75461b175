package expiry

// SegLRU is a scan-resistant segmented LRU over the same intrusive Nodes
// the timer wheel uses. New entries enter a probationary segment; only an
// entry hit again is promoted to the protected segment, whose size is
// capped — promotion past the cap demotes the protected LRU entry back to
// probationary. A one-pass scan of cold keys therefore churns only the
// probationary segment and cannot flush the hot set. Victim selection is
// probationary-tail first, so eviction under memory pressure also prefers
// one-shot entries. Entry counts are tracked per segment.

// Node.seg values.
const (
	segNone = iota
	segProb
	segProt
)

// lruList is a nil-terminated doubly-linked list threaded through Node's
// lnext/lprev, head = MRU.
type lruList struct {
	head, tail *Node
	n          int
}

func (l *lruList) pushFront(n *Node) {
	n.lprev = nil
	n.lnext = l.head
	if l.head != nil {
		l.head.lprev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	l.n++
}

func (l *lruList) remove(n *Node) {
	if n.lprev != nil {
		n.lprev.lnext = n.lnext
	} else {
		l.head = n.lnext
	}
	if n.lnext != nil {
		n.lnext.lprev = n.lprev
	} else {
		l.tail = n.lprev
	}
	n.lnext, n.lprev = nil, nil
	l.n--
}

// SegLRU's zero value is usable with an unlimited protected segment; call
// Init to cap it.
type SegLRU struct {
	prob, prot lruList
	protCap    int // max protected entries; <=0 = unlimited
}

// Init sets the protected-segment entry cap (<=0 = unlimited) on an empty
// policy.
func (s *SegLRU) Init(protCap int) { s.protCap = protCap }

// Len returns the total tracked entries.
func (s *SegLRU) Len() int { return s.prob.n + s.prot.n }

// ProtectedLen returns the protected segment's entry count.
func (s *SegLRU) ProtectedLen() int { return s.prot.n }

// Insert tracks a new node at the probationary MRU position.
func (s *SegLRU) Insert(n *Node) {
	n.seg = segProb
	s.prob.pushFront(n)
}

// Touch records a hit: a probationary node is promoted to the protected
// MRU (demoting the protected LRU back to probationary if the cap is
// exceeded); a protected node moves to its segment's MRU.
func (s *SegLRU) Touch(n *Node) {
	switch n.seg {
	case segProt:
		if s.prot.head == n {
			return
		}
		s.prot.remove(n)
		s.prot.pushFront(n)
	case segProb:
		s.prob.remove(n)
		n.seg = segProt
		s.prot.pushFront(n)
		for s.protCap > 0 && s.prot.n > s.protCap {
			d := s.prot.tail
			s.prot.remove(d)
			d.seg = segProb
			s.prob.pushFront(d)
		}
	}
}

// Remove untracks a node (idempotent on untracked nodes).
func (s *SegLRU) Remove(n *Node) {
	switch n.seg {
	case segProb:
		s.prob.remove(n)
	case segProt:
		s.prot.remove(n)
	default:
		return
	}
	n.seg = segNone
}

// Each calls fn for every tracked node — probationary segment first, then
// protected, each LRU→MRU — with protected reporting the segment. Feeding
// the same sequence back through Insert (+ Touch when protected) rebuilds
// an identical policy state; snapshot codecs rely on this.
func (s *SegLRU) Each(fn func(n *Node, protected bool)) {
	for n := s.prob.tail; n != nil; n = n.lprev {
		fn(n, false)
	}
	for n := s.prot.tail; n != nil; n = n.lprev {
		fn(n, true)
	}
}

// Victim returns the next node to evict under memory pressure — the
// probationary LRU entry, falling back to the protected LRU entry — or
// nil if empty. The caller removes it (typically via its own delete
// path).
func (s *SegLRU) Victim() *Node {
	if s.prob.tail != nil {
		return s.prob.tail
	}
	return s.prot.tail
}
