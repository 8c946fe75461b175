// Package replica turns one delegation shard into a replica group: a
// minimal raft-style applied-log replication layer grown on top of the
// exactly-once seq-ledger substrate from the supervised single-server
// design.
//
// The shape follows the paper's delegation model rather than a general
// consensus library: a shard already has exactly one writer (the
// delegation server goroutine), so the leader's log never sees competing
// appenders and elections never race concurrent proposals. What remains
// of raft is the part that buys durability of acknowledged writes:
//
//   - The leader appends each batch of applied ops (client identity,
//     seq, op, args — one entry per op, one append per batch) to its
//     shard log and acknowledges the delegating client only after a
//     quorum of follower replicas has appended it (group commit: one
//     durable write, one replication round, one quorum wait per batch).
//   - Followers apply committed entries to their own backend instance,
//     so any follower can be promoted with no acknowledged write lost.
//   - A replicated last-applied ledger keyed by client identity makes
//     promotion + client retry exactly-once: a retried op that committed
//     under the dead leader is answered from the new leader's ledger
//     without re-execution.
//   - Snapshots (state machine encoding + ledger + last applied index),
//     taken once the live log outweighs the last image, truncate the log
//     prefix on every member; a restarted or lagging replica installs
//     snapshot-then-suffix instead of replaying history.
//
// Replication runs inside the delegated functions on the leader's server
// goroutine, so it adds no synchronization to the sweep hot path; the
// whole group shares one mutex that only failover-time operations
// contend on.
package replica

import "errors"

// Applied is one ledger cell: the highest applied seq for a client and
// the return value of that application.
type Applied struct {
	Seq uint64
	Ret uint64
}

// StateMachine is the replicated backend instance. Apply must be
// deterministic: replicas converge only because they apply the same
// entries in the same order to the same implementation.
type StateMachine interface {
	// Apply executes one committed entry and returns its result word.
	Apply(e Entry) uint64
	// Snapshot encodes the full state for catch-up transfer.
	Snapshot() []byte
	// Restore replaces the state with a previously encoded snapshot.
	Restore(data []byte)
}

// Snapshot is a point-in-time replica image: everything a wiped replica
// needs to resume at LastIndex without the log prefix.
type Snapshot struct {
	LastIndex uint64
	LastTerm  uint64
	State     []byte
	Ledger    map[uint64]Applied
}

// Hooks is the fault-injection surface, mirroring core.Hooks: a
// structural interface so the fault package needs no import of this one.
// All methods are called with the group lock held, on the proposing
// (leader server) goroutine.
type Hooks interface {
	// DropAppend reports whether append attempt n to the given follower
	// should be dropped — a partitioned follower from the leader's view.
	DropAppend(follower int, n uint64) bool
	// SlowAppend may sleep to simulate a slow follower link on append
	// attempt n.
	SlowAppend(follower int, n uint64)
}

// Replica is one in-process group member: a Member (the follower half —
// state machine, log suffix, replicated ledger, apply cursors) plus the
// group bookkeeping that only makes sense inside a Group. All fields
// are guarded by the owning Group's mutex.
type Replica struct {
	Member
	id   int
	dead bool
}

// ID returns the replica's stable member index within its group.
func (r *Replica) ID() int { return r.id }

var (
	// ErrNotLeader rejects a propose on a deposed or dead replica.
	ErrNotLeader = errors.New("replica: not the leader")
	// ErrNoQuorum reports that too few live replicas appended the entry
	// for it to commit now. The entry stays in the log and may commit
	// later; the client must retry (dedup makes the retry exact-once).
	ErrNoQuorum = errors.New("replica: no quorum of live replicas")
	// ErrDead rejects operations on a replica marked dead.
	ErrDead = errors.New("replica: replica is dead")
)
