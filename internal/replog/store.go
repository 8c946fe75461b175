package replog

import (
	"fmt"

	"ffwd/internal/replica"
)

// Store is one member's durable image: WAL + snapshots + meta in a
// single directory. It implements internal/replica's structural Storage
// interface, so a replica.Member wired to a Store replays snapshot +
// WAL suffix on restart instead of starting wiped.
//
// Like the WAL it wraps, a Store is serialized by its owning member;
// only Stats is safe to call from other goroutines.
type Store struct {
	dir  string
	opt  Options
	wal  *WAL
	meta Meta
	// lastSnap is the index of the one snapshot file the previous save
	// left behind; snapClean says that knowledge is good (false until the
	// first save of this process has scanned the directory).
	lastSnap  uint64
	snapClean bool
}

// Recovered is what a directory held at open: the durable image a
// member resumes from.
type Recovered struct {
	// Snap is the newest valid snapshot, nil if none.
	Snap *replica.Snapshot
	// Entries is the contiguous WAL suffix after Snap (entries the
	// snapshot already covers are dropped during recovery).
	Entries []replica.Entry
	// Meta holds the durable term and the incremented boot counter.
	Meta Meta
	// TornRecords/TornBytes report how much unacknowledged tail the
	// open truncated away.
	TornRecords uint64
	TornBytes   uint64
}

// Open opens (creating if needed) the member directory at dir, recovers
// its durable image, and bumps the boot counter. The recovered entries
// always continue Snap contiguously; violations mean acknowledged data
// is missing and fail with ErrCorrupt rather than resuming from a hole.
func Open(dir string, opt Options) (*Store, Recovered, error) {
	opt = opt.withDefaults()
	var rec Recovered
	snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, rec, err
	}
	wal, entries, err := OpenWAL(dir, opt)
	if err != nil {
		return nil, rec, err
	}
	base := uint64(0)
	if snap != nil {
		base = snap.LastIndex
	}
	// Drop entries the snapshot already covers; what remains must butt
	// up against the snapshot boundary.
	for len(entries) > 0 && entries[0].Index <= base {
		entries = entries[1:]
	}
	if len(entries) > 0 && entries[0].Index != base+1 {
		wal.Close()
		return nil, rec, fmt.Errorf("%w: WAL resumes at %d but snapshot covers through %d",
			ErrCorrupt, entries[0].Index, base)
	}
	if len(entries) == 0 && wal.next < base+1 {
		// The whole live log predates the snapshot (compaction raced the
		// crash); restart the index sequence at the boundary.
		wal.next = base + 1
	}
	meta := loadMeta(dir)
	meta.Boots++
	if err := saveMeta(dir, meta); err != nil {
		wal.Close()
		return nil, rec, err
	}
	st := wal.Stats()
	s := &Store{dir: dir, opt: opt, wal: wal, meta: meta}
	rec = Recovered{
		Snap:        snap,
		Entries:     entries,
		Meta:        meta,
		TornRecords: st.TornRecords,
		TornBytes:   st.TornBytes,
	}
	return s, rec, nil
}

// Dir returns the member directory.
func (s *Store) Dir() string { return s.dir }

// AppendEntries durably frames ents onto the log tail (fsynced now
// under SyncAlways, at the next Sync under SyncBatch).
func (s *Store) AppendEntries(ents []replica.Entry) error {
	return s.wal.Append(ents)
}

// TruncateSuffix durably drops entries with index >= i.
func (s *Store) TruncateSuffix(i uint64) error { return s.wal.TruncateSuffix(i) }

// Compact durably drops whole segments covered by index i.
func (s *Store) Compact(i uint64) error { return s.wal.Compact(i) }

// SaveSnapshot atomically persists snap and GCs older snapshots.
func (s *Store) SaveSnapshot(snap *replica.Snapshot) error {
	n, err := saveSnapshot(s.dir, snap, s.opt.Crash, s.lastSnap, !s.snapClean)
	s.lastSnap, s.snapClean = snap.LastIndex, err == nil
	if err != nil {
		return err
	}
	s.wal.stats.snapshots.Add(1)
	s.wal.stats.snapBytes.Store(uint64(n))
	return nil
}

// InstallSnapshot atomically persists snap and resets the log to resume
// after it — the receiving side of a snapshot transfer.
func (s *Store) InstallSnapshot(snap *replica.Snapshot) error {
	if err := s.SaveSnapshot(snap); err != nil {
		return err
	}
	return s.wal.Reset(snap.LastIndex)
}

// SaveTerm durably records the highest accepted term.
func (s *Store) SaveTerm(term uint64) error {
	if term <= s.meta.Term {
		return nil
	}
	s.meta.Term = term
	return saveMeta(s.dir, s.meta)
}

// Sync makes outstanding appends durable per the policy.
func (s *Store) Sync() error { return s.wal.Sync() }

// Close seals the store.
func (s *Store) Close() error { return s.wal.Close() }

// Stats returns a counter snapshot (safe from any goroutine).
func (s *Store) Stats() Stats {
	st := s.wal.Stats()
	st.Snapshots = s.wal.stats.snapshots.Load()
	st.SnapshotBytes = s.wal.stats.snapBytes.Load()
	return st
}
