// Package replog is the durable half of cross-process replication: a
// segmented write-ahead log plus atomic snapshot files, so a replica
// member killed at any byte offset — `kill -9` mid-record, mid-fsync,
// or mid-snapshot-install — reopens to a consistent prefix of what it
// acknowledged.
//
// The layout of a member's data directory:
//
//	wal-<firstIndex>.log   log segments: a 16-byte header followed by
//	                       entry records in internal/frame header frames
//	snap-<lastIndex>.snap  snapshots: state machine image + replicated
//	                       ledger, frame.AppendCRC-sealed, temp+rename
//	meta.bin               term / boot counter, frame.AppendCRC-sealed,
//	                       temp+rename
//
// Durability rules:
//
//   - Appends become durable per the configured SyncPolicy: SyncAlways
//     fsyncs every append batch, SyncBatch fsyncs on the explicit Sync
//     call a caller makes before acknowledging (one fsync per append
//     frame or propose), SyncNone leaves appends to the OS (fast, and
//     honest about what it no longer guarantees; the file-ordering
//     fsyncs below still run).
//   - Snapshots and meta are written to a temp file, fsynced, renamed
//     into place, and the directory fsynced — a crash leaves either the
//     old file or the new one, never a torn hybrid.
//   - On open, the last segment's tail is scanned record by record; a
//     short, mangled, or mis-CRC'd tail record is truncated away (it was
//     never acknowledged — the fsync that would have made it durable is
//     also what orders it before the ack). Corruption anywhere before
//     the tail is an error, not a truncation: that data was acknowledged
//     and silently dropping it would break the replication contract.
//
// The package depends on internal/replica only for the Entry and
// Snapshot types; replica reaches back structurally through its Storage
// interface, which *Store implements.
package replog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"ffwd/internal/obs"
)

// SyncPolicy says when WAL appends are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append batch — maximum durability,
	// one fsync per record in the worst case.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs only on explicit Sync calls: the caller syncs
	// once per append frame / propose, just before acknowledging, so a
	// multi-entry batch costs one fsync.
	SyncBatch
	// SyncNone skips the per-append fsync and the Sync before an ack; a
	// machine crash may lose acknowledged writes (a process crash alone
	// does not — the page cache survives). It does not skip the fsyncs
	// that order the files themselves: a snapshot still syncs its temp
	// file and the directory, and sealing, truncating or compacting a
	// segment still syncs the segment and the directory.
	SyncNone
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("replog: unknown fsync policy %q (always|batch|none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures a WAL or Store.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB; tests use tiny values to force rotation).
	SegmentBytes int64
	// Crash, if non-nil, arms deterministic self-kill points for the
	// process-kill chaos harness. Production leaves it nil.
	Crash *CrashPoint
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// Stats is a point-in-time counter snapshot of a WAL/Store.
type Stats struct {
	Appends       uint64 // entry records appended
	Writes        uint64 // write(2) calls that carried them (one per append batch)
	Syncs         uint64 // fsyncs issued for record durability
	Bytes         uint64 // record bytes appended (headers included)
	TornRecords   uint64 // tail records truncated away at open
	TornBytes     uint64 // bytes those records occupied
	Segments      uint64 // live segments right now
	Rotations     uint64 // segment rotations
	Compactions   uint64 // prefix truncations (snapshot-driven)
	SuffixTruncs  uint64 // suffix truncations (conflict-driven)
	Snapshots     uint64 // snapshots persisted
	SnapshotBytes uint64 // bytes in the latest persisted snapshot
}

// Rows declares the counters the snapshot exports, once, for every stats
// sink (see obs.Registry).
func (s Stats) Rows() []obs.Row {
	return []obs.Row{
		{Name: "ffwd_wal_appends_total", Key: "wal_appends", Help: "Entry records appended to the durable WAL.", Value: float64(s.Appends)},
		{Name: "ffwd_wal_writes_total", Key: "wal_writes", Help: "write(2) calls that carried those records (one per committed batch).", Value: float64(s.Writes)},
		{Name: "ffwd_wal_syncs_total", Key: "wal_syncs", Help: "fsyncs issued for WAL record durability.", Value: float64(s.Syncs)},
		{Name: "ffwd_wal_snapshots_total", Key: "wal_snapshots", Help: "Snapshots persisted beside the WAL.", Value: float64(s.Snapshots)},
		{Name: "ffwd_wal_torn_records_total", Key: "wal_torn_records", Help: "Torn tail records truncated away during recovery.", Value: float64(s.TornRecords)},
		{Name: "ffwd_wal_compactions_total", Key: "wal_compactions", Help: "Snapshot-driven WAL prefix truncations.", Value: float64(s.Compactions)},
	}
}

type statCounters struct {
	appends      atomic.Uint64
	writes       atomic.Uint64
	syncs        atomic.Uint64
	bytes        atomic.Uint64
	tornRecords  atomic.Uint64
	tornBytes    atomic.Uint64
	rotations    atomic.Uint64
	compactions  atomic.Uint64
	suffixTruncs atomic.Uint64
	snapshots    atomic.Uint64
	snapBytes    atomic.Uint64
}

// ErrCorrupt reports acknowledged (non-tail) data that fails
// validation; recovery must not paper over it.
var ErrCorrupt = errors.New("replog: corrupt record before the log tail")

// syncFile fsyncs f, translating the platform error.
func syncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("replog: fsync %s: %w", f.Name(), err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and unlinks within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic writes data to path via a temp file in the same
// directory: write, fsync, rename, fsync the directory.
func writeFileAtomic(path string, data []byte) error {
	if err := writeTempRename(path, data); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeTempRename is writeFileAtomic without the directory fsync, for a
// caller with more directory changes to make durable in the same sync.
func writeTempRename(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
	}
	return err
}
