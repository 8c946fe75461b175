package reptrans

import (
	"sync/atomic"

	"ffwd/internal/replica"
)

// LeaderRef is a late-bound Leader, breaking the construction cycle
// between a replica.Group — which needs its Remotes at construction —
// and its Peers, which need the group to serve frames. Build the peers
// against a LeaderRef, build the group with those peers, then Set.
//
// Until Set is called, FrameFor serves empty frames at InitialTerm and
// Term reports InitialTerm, so a peer that wins the race to connect
// opens its session under the term the group will actually use.
type LeaderRef struct {
	// InitialTerm is the term reported before Set — pass the same value
	// the group will be constructed with (the persisted boot counter).
	InitialTerm uint64

	v atomic.Value // Leader
}

// Set binds the real leader. Safe to call once, from any goroutine.
func (r *LeaderRef) Set(l Leader) { r.v.Store(l) }

// FrameFor implements Leader.
func (r *LeaderRef) FrameFor(ni uint64, buf []replica.Entry) replica.LeaderFrame {
	if l, ok := r.v.Load().(Leader); ok {
		return l.FrameFor(ni, buf)
	}
	return replica.LeaderFrame{Term: r.InitialTerm}
}

// Term implements Leader.
func (r *LeaderRef) Term() uint64 {
	if l, ok := r.v.Load().(Leader); ok {
		return l.Term()
	}
	return r.InitialTerm
}
