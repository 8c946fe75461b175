// Package expiry is the server-owned time subsystem: a hierarchical
// timer wheel for O(1) TTL scheduling with budgeted, resumable advances,
// and a scan-resistant segmented LRU for memory-pressure eviction. Both
// structures are intrusive — the owner embeds a Node in each entry — so
// scheduling, cancelling, touching and evicting allocate nothing.
//
// Neither structure synchronizes. Like every other delegated structure in
// this repo they are meant to be owned outright by one delegation server
// goroutine: expiry and eviction ride the server's exclusive cache
// residency instead of being contended client work (the paper's ownership
// argument applied to maintenance).
package expiry

import "math/bits"

const (
	slotBits    = 6
	wheelSlots  = 1 << slotBits // 64 slots per level
	slotMask    = wheelSlots - 1
	wheelLevels = 4 // 4 levels x 6 bits = a 2^24-tick indexed horizon

	// horizon is the furthest distance the wheel proper can index;
	// deadlines at or beyond now+horizon wait on the overflow list and
	// are re-placed when the top level wraps.
	horizon = uint64(1) << (slotBits * wheelLevels)

	overflowSlot = wheelLevels * wheelSlots
)

// Node is the intrusive handle an owner embeds in each of its entries.
// The wheel links it into slot lists and the SegLRU into segment lists;
// neither allocates. Key is an opaque word the owner uses to find the
// surrounding entry when the node fires or is chosen as an eviction
// victim. The zero value is unscheduled and unlisted.
type Node struct {
	Key uint64

	// deadline is the scheduled expiry tick; 0 means unscheduled (tick 0
	// is never schedulable — deadlines are strictly after the wheel's
	// start tick).
	deadline uint64
	slot     int32
	seg      uint8

	next, prev   *Node // timer-wheel slot list
	lnext, lprev *Node // SegLRU segment list
}

// Deadline returns the tick the node is scheduled to fire at, 0 if
// unscheduled.
func (n *Node) Deadline() uint64 { return n.deadline }

// Wheel is a hierarchical timer wheel over an abstract tick clock. Level
// l buckets deadlines at 64^l-tick granularity; advancing the clock
// cascades maturing buckets down a level until they fire out of level 0
// at exact ticks. Schedule and Cancel are O(1); Advance is O(due work)
// with empty stretches skipped via per-level occupancy bitmasks (the same
// idiom the core uses to skip empty request slots).
type Wheel struct {
	now   uint64
	count int // scheduled nodes, overflow included

	// slots holds the per-level bucket lists (level-major), plus the
	// overflow list at the end.
	slots [wheelLevels*wheelSlots + 1]*Node
	occ   [wheelLevels]uint64 // bit s set ⇔ that level's slot s is non-empty
}

// Now returns the last fully processed tick.
func (w *Wheel) Now() uint64 { return w.now }

// Len returns the number of scheduled nodes (overflow included).
func (w *Wheel) Len() int { return w.count }

// Schedule (re)schedules n to fire at deadline. Deadlines at or before
// Now clamp to Now+1 (they fire on the next advance). O(1), allocates
// nothing.
func (w *Wheel) Schedule(n *Node, deadline uint64) {
	if n.deadline != 0 {
		w.unlink(n)
	} else {
		w.count++
	}
	if deadline <= w.now {
		deadline = w.now + 1
	}
	n.deadline = deadline
	w.link(n, w.place(deadline, w.now))
}

// Cancel unschedules n, reporting whether it was scheduled. O(1).
func (w *Wheel) Cancel(n *Node) bool {
	if n.deadline == 0 {
		return false
	}
	w.unlink(n)
	n.deadline = 0
	w.count--
	return true
}

// place picks the bucket for a deadline as seen from tick `from`: the
// lowest level whose span covers the remaining distance, indexed by the
// deadline's digits at that level's granularity.
func (w *Wheel) place(deadline, from uint64) int32 {
	delta := deadline - from
	for l := uint(0); l < wheelLevels; l++ {
		if delta < 1<<(slotBits*(l+1)) {
			return int32(l)*wheelSlots + int32((deadline>>(slotBits*l))&slotMask)
		}
	}
	return overflowSlot
}

func (w *Wheel) link(n *Node, slot int32) {
	n.slot = slot
	head := w.slots[slot]
	n.prev = nil
	n.next = head
	if head != nil {
		head.prev = n
	}
	w.slots[slot] = n
	if slot != overflowSlot {
		w.occ[slot>>slotBits] |= 1 << uint(slot&slotMask)
	}
}

func (w *Wheel) unlink(n *Node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		w.slots[n.slot] = n.next
		if n.next == nil && n.slot != overflowSlot {
			w.occ[n.slot>>slotBits] &^= 1 << uint(n.slot&slotMask)
		}
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.next, n.prev = nil, nil
}

// Advance processes every deadline due at ticks in (Now, target], calling
// fire for each due node (already unscheduled when the callback runs),
// spending at most budget units — one unit per fired node or per node
// relinked during a cascade. It returns the units spent. A return equal
// to budget means the wheel may have stopped early with Now < target;
// calling Advance again resumes exactly where it stopped (partially
// drained buckets stay consistent because Now only moves once a tick's
// cascades and fires have fully completed). budget <= 0 means unbounded.
// Overflow-list drains at the top-level wrap are atomic and may overshoot
// the budget; the overshoot is still counted in the return.
func (w *Wheel) Advance(target uint64, budget int, fire func(*Node)) int {
	units := 0
	if budget <= 0 {
		budget = int(^uint(0) >> 1)
	}
	for w.now < target {
		if w.count == 0 {
			w.now = target
			break
		}
		t := w.nextEvent()
		if t > target {
			w.now = target
			break
		}
		// Drain the overflow list when the top level wraps: every node
		// either fires, re-enters the wheel, or goes back to overflow.
		if t&(horizon-1) == 0 && w.slots[overflowSlot] != nil {
			units += w.drainOverflow(t, fire)
		}
		// Cascade maturing buckets down, highest level first. Relinks
		// are placed as seen from t, so nothing can land back in the
		// bucket being drained.
		for l := wheelLevels - 1; l >= 1; l-- {
			unit := uint64(1) << (slotBits * uint(l))
			if t&(unit-1) != 0 {
				continue
			}
			slot := int32(l)*wheelSlots + int32((t>>(slotBits*uint(l)))&slotMask)
			for w.slots[slot] != nil {
				if units >= budget {
					return units
				}
				n := w.slots[slot]
				w.unlink(n)
				if n.deadline <= t {
					n.deadline = 0
					w.count--
					fire(n)
				} else {
					w.link(n, w.place(n.deadline, t))
				}
				units++
			}
		}
		// Fire level 0: every node here matured to exactly tick t.
		slot0 := int32(t & slotMask)
		for w.slots[slot0] != nil {
			if units >= budget {
				return units
			}
			n := w.slots[slot0]
			w.unlink(n)
			n.deadline = 0
			w.count--
			fire(n)
			units++
		}
		w.now = t
	}
	return units
}

// nextEvent returns the earliest tick after now at which the wheel has
// work: a level-0 bucket to fire, a higher-level bucket to cascade, or an
// overflow drain at the top-level wrap. Empty stretches are skipped with
// the occupancy bitmasks. Returns ^uint64(0) when nothing is scheduled.
func (w *Wheel) nextEvent() uint64 {
	best := ^uint64(0)
	for l := uint(0); l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		// Slot s of level l is visited at ticks t ≡ 0 (mod 64^l) with
		// (t/64^l) ≡ s (mod 64). base is the first visit index after
		// now; d the circular distance to the next occupied slot.
		base := (w.now >> (slotBits * l)) + 1
		cur := base & slotMask
		var d uint64
		if hi := w.occ[l] >> cur; hi != 0 {
			d = uint64(bits.TrailingZeros64(hi))
		} else {
			lo := w.occ[l] & (1<<cur - 1)
			d = uint64(wheelSlots) - cur + uint64(bits.TrailingZeros64(lo))
		}
		if t := (base + d) << (slotBits * l); t < best {
			best = t
		}
	}
	if w.slots[overflowSlot] != nil {
		if t := ((w.now >> (slotBits * wheelLevels)) + 1) << (slotBits * wheelLevels); t < best {
			best = t
		}
	}
	return best
}

// drainOverflow detaches the whole overflow list and re-places every node
// as seen from tick t: fire if due, re-enter the wheel if within the
// horizon, back to overflow otherwise.
func (w *Wheel) drainOverflow(t uint64, fire func(*Node)) int {
	n := w.slots[overflowSlot]
	w.slots[overflowSlot] = nil
	units := 0
	for n != nil {
		next := n.next
		n.next, n.prev = nil, nil
		if n.deadline <= t {
			n.deadline = 0
			w.count--
			fire(n)
		} else {
			w.link(n, w.place(n.deadline, t))
		}
		units++
		n = next
	}
	return units
}
