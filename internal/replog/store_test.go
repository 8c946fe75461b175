package replog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ffwd/internal/replica"
)

func TestStoreFreshOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m0")
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if rec.Snap != nil || len(rec.Entries) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	if rec.Meta.Boots != 1 {
		t.Fatalf("Boots = %d, want 1", rec.Meta.Boots)
	}
}

func TestStoreRecoversSnapshotPlusSuffix(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries(mkEntries(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(mkSnap(6)); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := s.Compact(6); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.SaveTerm(4); err != nil {
		t.Fatalf("SaveTerm: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	snapsEqual(t, rec.Snap, mkSnap(6))
	// Single segment [1..10] survives compaction whole; recovery drops
	// the covered prefix and returns only the suffix.
	entriesEqual(t, rec.Entries, mkEntries(7, 10))
	if rec.Meta.Term != 4 {
		t.Fatalf("Term = %d, want 4", rec.Meta.Term)
	}
	if rec.Meta.Boots != 2 {
		t.Fatalf("Boots = %d, want 2", rec.Meta.Boots)
	}
}

func TestStoreInstallSnapshotResetsLog(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries(mkEntries(1, 5)); err != nil {
		t.Fatal(err)
	}
	// A snapshot transfer from the leader supersedes the local log.
	if err := s.InstallSnapshot(mkSnap(50)); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if err := s.AppendEntries([]replica.Entry{mkEntry(51)}); err != nil {
		t.Fatalf("append after install: %v", err)
	}
	s.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	snapsEqual(t, rec.Snap, mkSnap(50))
	entriesEqual(t, rec.Entries, []replica.Entry{mkEntry(51)})
}

// A WAL that resumes above the snapshot boundary is a hole in
// acknowledged data; recovery must refuse.
func TestStoreHoleAfterSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallSnapshot(mkSnap(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries(mkEntries(11, 12)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate losing the post-snapshot segment and fabricating a later
	// one: entries resume at 14 with 13 missing.
	if err := os.Remove(filepath.Join(dir, segName(11))); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.next = 14
	if err := w.Append([]replica.Entry{mkEntry(14)}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open err = %v, want ErrCorrupt", err)
	}
}

// After a snapshot install whose log reset survived but whose process
// died before any new appends, the WAL is empty and must resume at the
// snapshot boundary.
func TestStoreEmptyLogAfterSnapshotResumes(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallSnapshot(mkSnap(30)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if len(rec.Entries) != 0 {
		t.Fatalf("recovered %d entries, want 0", len(rec.Entries))
	}
	if err := s2.AppendEntries([]replica.Entry{mkEntry(31)}); err != nil {
		t.Fatalf("append at boundary: %v", err)
	}
	if err := s2.AppendEntries([]replica.Entry{mkEntry(40)}); err == nil {
		t.Fatalf("append past boundary accepted")
	}
}

func TestStoreSaveTermMonotonic(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range []uint64{3, 1, 2} {
		if err := s.SaveTerm(term); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if m := loadMeta(dir); m.Term != 3 {
		t.Fatalf("Term = %d, want 3 (regressions must not persist)", m.Term)
	}
}

func TestStoreStatsCountTears(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries(mkEntries(1, 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Tear the last record.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	entriesEqual(t, rec.Entries, mkEntries(1, 2))
	if rec.TornRecords != 1 {
		t.Fatalf("TornRecords = %d, want 1", rec.TornRecords)
	}
	wantTorn := uint64(recHeaderLen + entryLen - 10)
	if rec.TornBytes != wantTorn {
		t.Fatalf("TornBytes = %d, want %d", rec.TornBytes, wantTorn)
	}
	if st := s2.Stats(); st.TornRecords != 1 || st.Appends != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestMetaCorruptReadsAsZero(t *testing.T) {
	dir := t.TempDir()
	if err := saveMeta(dir, Meta{Term: 9, Boots: 4}); err != nil {
		t.Fatal(err)
	}
	if m := loadMeta(dir); m.Term != 9 || m.Boots != 4 {
		t.Fatalf("round-trip: %+v", m)
	}
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, metaFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if m := loadMeta(dir); m != (Meta{}) {
		t.Fatalf("corrupt meta read as %+v, want zero", m)
	}
	if m := loadMeta(t.TempDir()); m != (Meta{}) {
		t.Fatalf("missing meta read as %+v, want zero", m)
	}
}

func TestCrashPointParsing(t *testing.T) {
	t.Setenv(CrashEnv, "wal-record:3:17")
	cp, err := CrashFromEnv()
	if err != nil || cp == nil || cp.AtRecord != 3 || cp.TornBytes != 17 {
		t.Fatalf("parsed %+v, %v", cp, err)
	}
	t.Setenv(CrashEnv, "wal-record:2")
	cp, err = CrashFromEnv()
	if err != nil || cp == nil || cp.AtRecord != 2 || cp.TornBytes != 7 {
		t.Fatalf("parsed %+v, %v", cp, err)
	}
	t.Setenv(CrashEnv, "snap-temp:1")
	cp, err = CrashFromEnv()
	if err != nil || cp == nil || cp.AtSnapshot != 1 {
		t.Fatalf("parsed %+v, %v", cp, err)
	}
	t.Setenv(CrashEnv, "")
	if cp, err = CrashFromEnv(); err != nil || cp != nil {
		t.Fatalf("empty env parsed as %+v, %v", cp, err)
	}
	for _, bad := range []string{"wal-record", "wal-record:0", "wal-record:x", "wal-record:1:-2", "snap-temp:1:2", "boom:1"} {
		t.Setenv(CrashEnv, bad)
		if _, err := CrashFromEnv(); err == nil {
			t.Fatalf("malformed %q accepted", bad)
		}
	}
	// A nil CrashPoint never fires.
	var nilCP *CrashPoint
	if n := nilCP.onRecord(); n != -1 {
		t.Fatalf("nil onRecord = %d", n)
	}
	if nilCP.onSnapshot() {
		t.Fatalf("nil onSnapshot fired")
	}
}

// A store's saves leave exactly one snapshot file behind each: the first
// save of a process scans the directory (a previous life may have left
// older snapshots and stray temps), later ones unlink just their
// predecessor — and saving the same index twice must not unlink itself.
func TestStoreSaveSnapshotLeavesOnlyNewest(t *testing.T) {
	dir := t.TempDir()
	for _, stray := range []string{snapName(3), snapName(7) + ".tmp-123"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("clutter"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snaps := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range names {
			names[i] = filepath.Base(names[i])
		}
		return names
	}
	for _, last := range []uint64{10, 20, 20, 30} {
		if err := s.SaveSnapshot(mkSnap(last)); err != nil {
			t.Fatalf("SaveSnapshot(%d): %v", last, err)
		}
		if got := snaps(); len(got) != 1 || got[0] != snapName(last) {
			t.Fatalf("after saving %d the directory holds %v", last, got)
		}
	}
	if st := s.Stats(); st.Snapshots != 4 {
		t.Fatalf("Snapshots = %d, want 4", st.Snapshots)
	}
}
