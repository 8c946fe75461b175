package replog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ffwd/internal/frame"
	"ffwd/internal/replica"
)

// recHeaderLen is the framing a WAL record adds to its entry payload.
const recHeaderLen = frame.HeaderLen

// mkEntry builds a deterministic entry for index i.
func mkEntry(i uint64) replica.Entry {
	return replica.Entry{
		Index:    i,
		Term:     1 + i/10,
		ClientID: 0x100 + i%3,
		Seq:      i,
		Kind:     replica.OpSet,
		Key:      i * 7,
		Val:      i * 13,
	}
}

func mkEntries(from, to uint64) []replica.Entry {
	var ents []replica.Entry
	for i := from; i <= to; i++ {
		ents = append(ents, mkEntry(i))
	}
	return ents
}

func entriesEqual(t *testing.T, got, want []replica.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// writeWAL creates a WAL in dir with entries 1..n and closes it.
func writeWAL(t *testing.T, dir string, opt Options, n uint64) {
	t.Helper()
	w, ents, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("fresh WAL replayed %d entries", len(ents))
	}
	if err := w.Append(mkEntries(1, n)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir, Options{}, 20)

	w, ents, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	entriesEqual(t, ents, mkEntries(1, 20))
	if w.Next() != 21 {
		t.Fatalf("Next() = %d, want 21", w.Next())
	}
	// Appends must continue the sequence.
	if err := w.Append([]replica.Entry{mkEntry(25)}); err == nil {
		t.Fatalf("append of non-contiguous index succeeded")
	}
	if err := w.Append([]replica.Entry{mkEntry(21)}); err != nil {
		t.Fatalf("contiguous append: %v", err)
	}
}

// TestWALTornTailEveryOffset is the pinned torn-write recovery test: a
// crash may leave any prefix of the final record on disk, and reopening
// must recover exactly the acknowledged entries before it, truncating
// the tear.
func TestWALTornTailEveryOffset(t *testing.T) {
	const n = 5
	master := t.TempDir()
	writeWAL(t, master, Options{}, n)

	segPath := filepath.Join(master, segName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	recLen := recHeaderLen + entryLen
	wantSize := segHeaderLen + n*recLen
	if len(full) != wantSize {
		t.Fatalf("segment is %d bytes, want %d", len(full), wantSize)
	}
	lastStart := len(full) - recLen

	// Every byte offset within the final record, from "record absent"
	// (clean EOF, not a tear) through "one byte missing".
	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatalf("cut=%d: write: %v", cut, err)
		}
		w, ents, err := OpenWAL(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		entriesEqual(t, ents, mkEntries(1, n-1))
		if w.Next() != n {
			t.Fatalf("cut=%d: Next() = %d, want %d", cut, w.Next(), uint64(n))
		}
		st := w.Stats()
		if cut == lastStart {
			if st.TornRecords != 0 {
				t.Fatalf("cut=%d: clean EOF counted as tear", cut)
			}
		} else if st.TornRecords != 1 || st.TornBytes != uint64(cut-lastStart) {
			t.Fatalf("cut=%d: torn stats = %d/%d, want 1/%d", cut, st.TornRecords, st.TornBytes, cut-lastStart)
		}
		// The tear must be truncated on disk, and the log must accept the
		// re-append of the lost index.
		if sz := fileSize(filepath.Join(dir, segName(1))); sz != int64(lastStart) {
			t.Fatalf("cut=%d: file is %d bytes after recovery, want %d", cut, sz, lastStart)
		}
		if err := w.Append([]replica.Entry{mkEntry(n)}); err != nil {
			t.Fatalf("cut=%d: re-append: %v", cut, err)
		}
		w.Close()

		w2, ents2, err := OpenWAL(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: second reopen: %v", cut, err)
		}
		entriesEqual(t, ents2, mkEntries(1, n))
		w2.Close()
	}
}

// A garbled (bit-flipped) tail record is truncated like a short one.
func TestWALGarbledTailTruncated(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	writeWAL(t, dir, Options{}, n)
	segPath := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHeaderLen + entryLen
	// Flip a payload byte inside the last record.
	full[len(full)-recLen+recHeaderLen+3] ^= 0xff
	if err := os.WriteFile(segPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	w, ents, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	entriesEqual(t, ents, mkEntries(1, n-1))
	if st := w.Stats(); st.TornRecords != 1 || st.TornBytes != uint64(recLen) {
		t.Fatalf("torn stats = %d/%d, want 1/%d", st.TornRecords, st.TornBytes, recLen)
	}
}

// An invalid record mid-way through the *last* segment is treated as
// the start of the torn tail: under SyncBatch an unsynced (hence
// unacknowledged) batch can tear across several records, so recovery
// cannot distinguish this from a legitimate multi-record tear. It
// truncates and reports the full size, rather than guessing.
func TestWALMidLastSegmentCorruptionTruncatesAsTail(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	writeWAL(t, dir, Options{}, n)
	segPath := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the second record's payload.
	recLen := recHeaderLen + entryLen
	full[segHeaderLen+recLen+recHeaderLen+5] ^= 0xff
	if err := os.WriteFile(segPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	w, ents, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	entriesEqual(t, ents, mkEntries(1, 1))
	if st := w.Stats(); st.TornBytes != uint64(recLen*(n-1)) {
		t.Fatalf("torn bytes = %d, want %d", st.TornBytes, recLen*(n-1))
	}
}

// Mid-log corruption in a *sealed* (non-last) segment is unambiguous:
// ErrCorrupt, no truncation.
func TestWALSealedSegmentCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation: each record is 57 bytes + 16 header.
	opt := Options{SegmentBytes: segHeaderLen + 2*(recHeaderLen+entryLen)}
	writeWAL(t, dir, opt, 8)

	first := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+recHeaderLen] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenWAL(dir, opt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen err = %v, want ErrCorrupt", err)
	}
}

func TestWALRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: segHeaderLen + 3*(recHeaderLen+entryLen)}
	writeWAL(t, dir, opt, 10)

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, de := range names {
		if _, ok := parseSegName(de.Name()); ok {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected >=3 segments, got %d", segs)
	}
	w, ents, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	entriesEqual(t, ents, mkEntries(1, 10))
	if st := w.Stats(); st.Segments != uint64(segs) {
		t.Fatalf("Stats.Segments = %d, want %d", st.Segments, segs)
	}
}

// A missing segment in the middle is a hole in acknowledged data.
func TestWALMissingSegmentFails(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: segHeaderLen + 2*(recHeaderLen+entryLen)}
	writeWAL(t, dir, opt, 8)
	if err := os.Remove(filepath.Join(dir, segName(3))); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(dir, opt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen err = %v, want ErrCorrupt", err)
	}
}

// A header-only torn final segment (rotation crashed mid-header) is
// dropped; the sealed segments before it survive.
func TestWALTornHeaderSegmentDropped(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: segHeaderLen + 2*(recHeaderLen+entryLen)}
	writeWAL(t, dir, opt, 4)
	// Fake a crash mid-rotation: a next segment holding half a header.
	if err := os.WriteFile(filepath.Join(dir, segName(5)), []byte{0x46, 0x46, 0x57}, 0o644); err != nil {
		t.Fatal(err)
	}
	w, ents, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	entriesEqual(t, ents, mkEntries(1, 4))
	if _, err := os.Stat(filepath.Join(dir, segName(5))); !os.IsNotExist(err) {
		t.Fatalf("torn header segment not removed: %v", err)
	}
	if err := w.Append([]replica.Entry{mkEntry(5)}); err != nil {
		t.Fatalf("append after drop: %v", err)
	}
}

func TestWALTruncateSuffix(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: segHeaderLen + 3*(recHeaderLen+entryLen)}
	w, _, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 10)); err != nil {
		t.Fatal(err)
	}
	// Cut inside segment 2 (entries 4..6): drop >= 5.
	if err := w.TruncateSuffix(5); err != nil {
		t.Fatalf("TruncateSuffix: %v", err)
	}
	if w.Next() != 5 {
		t.Fatalf("Next() = %d, want 5", w.Next())
	}
	// Divergent tail replaced with new entries at higher term.
	repl := mkEntries(5, 7)
	for i := range repl {
		repl[i].Term = 99
	}
	if err := w.Append(repl); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, ents, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	want := append(mkEntries(1, 4), repl...)
	entriesEqual(t, ents, want)
}

func TestWALTruncateSuffixWholeLog(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateSuffix(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 2)); err != nil {
		t.Fatalf("append after full truncate: %v", err)
	}
	w.Close()
	_, ents, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, ents, mkEntries(1, 2))
}

func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: segHeaderLen + 2*(recHeaderLen+entryLen)}
	w, _, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 9)); err != nil {
		t.Fatal(err)
	}
	// Segments: [1-2][3-4][5-6][7-8][9]. Compact through 5: segments
	// [1-2],[3-4] are fully covered; [5-6] straddles and must survive.
	if err := w.Compact(5); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := w.Stats(); st.Segments != 3 {
		t.Fatalf("Segments = %d after compact, want 3", st.Segments)
	}
	w.Close()

	_, ents, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	entriesEqual(t, ents, mkEntries(5, 9))
}

func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(42); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if w.Next() != 43 {
		t.Fatalf("Next() = %d, want 43", w.Next())
	}
	if err := w.Append([]replica.Entry{mkEntry(43)}); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	w.Close()
	_, ents, err := OpenWAL(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, ents, []replica.Entry{mkEntry(43)})
}

func TestWALSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncBatch, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := OpenWAL(dir, Options{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(mkEntries(1, 3)); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			switch pol {
			case SyncAlways:
				if st.Syncs == 0 {
					t.Fatalf("SyncAlways issued no fsyncs")
				}
			case SyncBatch:
				if st.Syncs != 1 {
					t.Fatalf("SyncBatch issued %d fsyncs, want 1", st.Syncs)
				}
			case SyncNone:
				if st.Syncs != 0 {
					t.Fatalf("SyncNone issued %d fsyncs", st.Syncs)
				}
			}
			w.Close()
			_, ents, err := OpenWAL(dir, Options{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			entriesEqual(t, ents, mkEntries(1, 3))
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatalf("bad policy accepted")
	}
}

// A batch is one write(2) however many records it frames — one more per
// segment boundary it crosses — and a batch that breaks the index
// sequence is refused before any of it reaches the file.
func TestWALAppendBatchIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(2, 65)); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Appends != 65 || st.Writes != 2 {
		t.Fatalf("appends=%d writes=%d after a 1-record and a 64-record batch, want 65/2", st.Appends, st.Writes)
	}
	bad := append(mkEntries(66, 67), mkEntry(69))
	size := w.size
	if err := w.Append(bad); err == nil {
		t.Fatal("a batch with a hole was accepted")
	}
	if w.size != size || w.Next() != 66 {
		t.Fatalf("refused batch left a trace: size %d -> %d, next=%d", size, w.size, w.Next())
	}
	w.Close()

	// Tiny segments: the batch is cut at every boundary, and still
	// replays whole.
	dir = t.TempDir()
	w, _, err = OpenWAL(dir, Options{Sync: SyncNone, SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(1, 40)); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Segments < 2 || st.Writes != st.Segments {
		t.Fatalf("40 records over 300-byte segments: segments=%d writes=%d, want one write per segment", st.Segments, st.Writes)
	}
	w.Close()
	_, ents, err := OpenWAL(dir, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	entriesEqual(t, ents, mkEntries(1, 40))
}

// Allocations per appended batch must not grow with the batch: records
// are framed in place into the WAL's own buffer.
func TestWALAppendAllocsIndependentOfSize(t *testing.T) {
	w, _, err := OpenWAL(t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	next := uint64(1)
	batch := make([]replica.Entry, 64)
	measure := func(n int) float64 {
		run := func() {
			for i := range batch[:n] {
				batch[i] = mkEntry(next)
				next++
			}
			if err := w.Append(batch[:n]); err != nil {
				t.Fatal(err)
			}
		}
		run() // size the frame buffer
		return testing.AllocsPerRun(50, run)
	}
	if big, one := measure(64), measure(1); big > one || one > 0 {
		t.Fatalf("allocs per append: %v at 64 records, %v at 1; want 0 and no growth", big, one)
	}
}
