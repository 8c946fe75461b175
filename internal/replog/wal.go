package replog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"ffwd/internal/frame"
	"ffwd/internal/replica"
)

// Segment header: an 8-byte magic ("FFWDWAL1") followed by the first
// entry index the segment holds. The index also names the file
// (wal-%016x.log), but the header makes a renamed or stray file
// self-evidently wrong instead of quietly misindexed.
const (
	segHeaderLen = 16
	segMagic     = uint64(0x3157414c44574646) // "FFWDWAL1" little-endian
	segPrefix    = "wal-"
	segSuffix    = ".log"
)

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segment is one on-disk log file: entries [first, last].
type segment struct {
	first uint64
	last  uint64 // == first-1 for an empty (header-only) segment
	path  string
}

// WAL is a segmented write-ahead log of replica entries. It is not
// internally synchronized: the owning replica member already serializes
// every append, truncation, and sync (stats reads are atomic and may
// come from anywhere).
type WAL struct {
	dir  string
	opt  Options
	segs []segment // sorted by first; last element is active when f != nil
	f    *os.File  // active segment (nil until the first append needs one)
	size int64     // active segment size in bytes
	next uint64    // index the next appended entry must carry
	buf  []byte    // reusable frame scratch

	dirty bool // unsynced appends outstanding (SyncBatch bookkeeping)
	stats statCounters
	// segsN mirrors len(segs) for lock-free Stats reads.
	segsN atomic.Uint64
}

// OpenWAL opens (creating if needed) the WAL in dir and replays every
// valid record. A torn tail in the final segment is truncated away;
// corruption anywhere earlier fails with ErrCorrupt. The returned
// entries are index-contiguous; the WAL will insist the next append
// continues the sequence.
func OpenWAL(dir string, opt Options) (*WAL, []replica.Entry, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	w := &WAL{dir: dir, opt: opt}

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var firsts []uint64
	for _, de := range names {
		if first, ok := parseSegName(de.Name()); ok {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })

	var entries []replica.Entry
	for i, first := range firsts {
		last := i == len(firsts)-1
		segEnts, err := w.openSegment(first, last)
		if err != nil {
			return nil, nil, err
		}
		if len(entries) > 0 && len(segEnts) > 0 &&
			segEnts[0].Index != entries[len(entries)-1].Index+1 {
			return nil, nil, fmt.Errorf("%w: segment %s starts at %d after %d",
				ErrCorrupt, segName(first), segEnts[0].Index, entries[len(entries)-1].Index)
		}
		entries = append(entries, segEnts...)
	}
	if n := len(entries); n > 0 {
		w.next = entries[n-1].Index + 1
	} else if n := len(w.segs); n > 0 {
		w.next = w.segs[n-1].first
	}
	return w, entries, nil
}

// openSegment validates and replays one segment, truncating a torn tail
// if the segment is the log's last. It registers the segment and, when
// last, keeps it open as the active file.
func (w *WAL) openSegment(first uint64, isLast bool) ([]replica.Entry, error) {
	path := filepath.Join(w.dir, segName(first))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	keepOpen := false
	defer func() {
		if !keepOpen {
			f.Close()
		}
	}()

	var hdr [segHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		if !isLast {
			return nil, fmt.Errorf("%w: segment %s has no header", ErrCorrupt, path)
		}
		// A header-only write torn mid-way: the segment holds nothing
		// acknowledged, so drop the file entirely.
		f.Close()
		keepOpen = true
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		w.stats.tornRecords.Add(1)
		return nil, syncDir(w.dir)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != segMagic {
		return nil, fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, path)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != first {
		return nil, fmt.Errorf("%w: segment %s header says first index %d", ErrCorrupt, path, got)
	}

	if _, err := f.Seek(segHeaderLen, 0); err != nil {
		return nil, err
	}
	recs, validEnd, torn, err := scanRecords(f, segHeaderLen)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if validEnd < st.Size() {
		if !isLast {
			return nil, fmt.Errorf("%w: segment %s has %d trailing bytes", ErrCorrupt, path, st.Size()-validEnd)
		}
		if !torn {
			// scanRecords stops without the torn flag only on EOF, so a
			// shortfall here is a scanner bug, not a disk state.
			return nil, fmt.Errorf("replog: segment %s: scan stopped at %d of %d without a tear", path, validEnd, st.Size())
		}
		w.stats.tornRecords.Add(1)
		w.stats.tornBytes.Add(uint64(st.Size() - validEnd))
		if err := f.Truncate(validEnd); err != nil {
			return nil, err
		}
		if err := syncFile(f); err != nil {
			return nil, err
		}
	}

	ents := make([]replica.Entry, len(recs))
	for i, r := range recs {
		want := first + uint64(i)
		if r.entry.Index != want {
			return nil, fmt.Errorf("%w: segment %s record %d carries index %d, want %d",
				ErrCorrupt, path, i, r.entry.Index, want)
		}
		ents[i] = r.entry
	}

	last := first - 1
	if len(ents) > 0 {
		last = ents[len(ents)-1].Index
	}
	w.segs = append(w.segs, segment{first: first, last: last, path: path})
	w.segsN.Store(uint64(len(w.segs)))
	if isLast {
		if _, err := f.Seek(validEnd, 0); err != nil {
			return nil, err
		}
		w.f, w.size = f, validEnd
		keepOpen = true
	}
	return ents, nil
}

// Next returns the index the next appended entry must carry.
func (w *WAL) Next() uint64 { return w.next }

// Append durably frames ents onto the log tail as one unit: the whole
// batch is framed into one buffer and handed to the file in a single
// write(2) (one more per segment boundary the batch happens to cross).
// Every entry must continue the index sequence; a batch that does not is
// refused before any of it is written. Under SyncAlways the batch is
// fsynced before return; under SyncBatch the caller syncs before
// acknowledging.
func (w *WAL) Append(ents []replica.Entry) error {
	if len(ents) == 0 {
		return nil
	}
	next := w.next
	if next == 0 {
		next = ents[0].Index // a fresh log starts wherever its first batch does
	}
	for i := range ents {
		if ents[i].Index != next {
			return fmt.Errorf("replog: append index %d, want %d", ents[i].Index, next)
		}
		next++
	}
	w.buf = w.buf[:0]
	framed := 0 // records in w.buf not yet written
	for i := range ents {
		if w.f == nil || w.size+int64(len(w.buf)) >= w.opt.SegmentBytes {
			if err := w.writeFramed(framed, ents[i].Index-1); err != nil {
				return err
			}
			framed = 0
			if err := w.rotate(ents[i].Index); err != nil {
				return err
			}
		}
		buf, start := frame.Begin(w.buf)
		w.buf = frame.End(encodeEntry(buf, ents[i]), start)
		framed++

		// The chaos harness's mid-write kill: flush the records framed
		// before this one plus a torn prefix of it, then die by SIGKILL.
		// Recovery must keep the former and truncate the latter away.
		if tb := w.opt.Crash.onRecord(); tb >= 0 {
			if tb > len(w.buf)-start {
				tb = len(w.buf) - start
			}
			w.f.Write(w.buf[:start+tb])
			w.f.Sync()
			w.opt.Crash.kill()
		}
	}
	if err := w.writeFramed(framed, ents[len(ents)-1].Index); err != nil {
		return err
	}
	if w.opt.Sync == SyncAlways {
		return w.sync()
	}
	return nil
}

// writeFramed hands the n records framed in w.buf, the last of which
// carries index last, to the active segment in one write.
func (w *WAL) writeFramed(n int, last uint64) error {
	if n == 0 {
		return nil
	}
	nb, err := w.f.Write(w.buf)
	if err != nil {
		return fmt.Errorf("replog: append to %s: %w", w.f.Name(), err)
	}
	w.buf = w.buf[:0]
	w.size += int64(nb)
	w.dirty = true
	w.stats.appends.Add(uint64(n))
	w.stats.writes.Add(1)
	w.stats.bytes.Add(uint64(nb))
	w.segs[len(w.segs)-1].last = last
	w.next = last + 1
	return nil
}

// rotate seals the active segment (if any) and starts a new one whose
// first entry will be index first.
func (w *WAL) rotate(first uint64) error {
	if w.f != nil {
		// Seal with the data on disk before the new segment exists, so a
		// crash between the two never strands synced data behind an
		// unsynced boundary.
		if err := w.sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
		w.stats.rotations.Add(1)
	}
	path := filepath.Join(w.dir, segName(first))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, segHeaderLen
	w.segs = append(w.segs, segment{first: first, last: first - 1, path: path})
	w.segsN.Store(uint64(len(w.segs)))
	return nil
}

// Sync makes outstanding appends durable (a no-op under SyncNone, or
// when nothing is dirty).
func (w *WAL) Sync() error {
	if w.opt.Sync == SyncNone || !w.dirty || w.f == nil {
		return nil
	}
	return w.sync()
}

func (w *WAL) sync() error {
	if w.f == nil {
		return nil
	}
	if err := syncFile(w.f); err != nil {
		return err
	}
	w.dirty = false
	w.stats.syncs.Add(1)
	return nil
}

// TruncateSuffix durably drops every entry with index >= i — the
// conflict-resolution path when a follower's tail disagrees with the
// leader's. Later segments are deleted whole; the segment containing i
// is cut at the record boundary.
func (w *WAL) TruncateSuffix(i uint64) error {
	if i >= w.next {
		return nil
	}
	w.stats.suffixTruncs.Add(1)
	// Close the active file: the loop below may delete or reopen it.
	if w.f != nil {
		if err := w.sync(); err != nil {
			return err
		}
		w.f.Close()
		w.f = nil
	}
	for len(w.segs) > 0 {
		s := &w.segs[len(w.segs)-1]
		if s.first >= i {
			if err := os.Remove(s.path); err != nil {
				return err
			}
			w.segs = w.segs[:len(w.segs)-1]
			w.segsN.Store(uint64(len(w.segs)))
			continue
		}
		if s.last < i {
			break
		}
		// i lands inside this segment: scan to the cut offset.
		f, err := os.OpenFile(s.path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		if _, err := f.Seek(segHeaderLen, 0); err != nil {
			f.Close()
			return err
		}
		recs, _, _, err := scanRecords(f, segHeaderLen)
		if err != nil {
			f.Close()
			return err
		}
		cut := int64(segHeaderLen)
		for _, r := range recs {
			if r.entry.Index >= i {
				cut = r.off
				break
			}
		}
		if err := f.Truncate(cut); err != nil {
			f.Close()
			return err
		}
		if err := syncFile(f); err != nil {
			f.Close()
			return err
		}
		// The cut segment becomes the active one again.
		if _, err := f.Seek(cut, 0); err != nil {
			f.Close()
			return err
		}
		w.f, w.size = f, cut
		s.last = i - 1
		break
	}
	w.next = i
	return syncDir(w.dir)
}

// Compact durably drops segments every entry of which is at or below
// index i (they are covered by a snapshot). The segment containing i+1
// survives even if it also holds older entries; recovery skips those
// against the snapshot boundary.
func (w *WAL) Compact(i uint64) error {
	removed := false
	for len(w.segs) > 0 && w.segs[0].last <= i {
		s := w.segs[0]
		if len(w.segs) == 1 {
			// The active segment: only drop it when it holds nothing at
			// all above i (fully covered), and let go of the handle.
			if w.f != nil {
				if err := w.sync(); err != nil {
					return err
				}
				w.f.Close()
				w.f = nil
			}
		}
		if err := os.Remove(s.path); err != nil {
			return err
		}
		w.segs = w.segs[1:]
		w.segsN.Store(uint64(len(w.segs)))
		removed = true
	}
	if removed {
		w.stats.compactions.Add(1)
		return syncDir(w.dir)
	}
	return nil
}

// Reset durably discards the entire log and restarts it after index
// last — the receiving side of a snapshot install.
func (w *WAL) Reset(last uint64) error {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for _, s := range w.segs {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	w.segs = w.segs[:0]
	w.segsN.Store(0)
	w.next = last + 1
	w.size = 0
	w.dirty = false
	return syncDir(w.dir)
}

// Close seals the log (syncing outstanding appends first).
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Stats returns a counter snapshot.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:      w.stats.appends.Load(),
		Writes:       w.stats.writes.Load(),
		Syncs:        w.stats.syncs.Load(),
		Bytes:        w.stats.bytes.Load(),
		TornRecords:  w.stats.tornRecords.Load(),
		TornBytes:    w.stats.tornBytes.Load(),
		Segments:     w.segsN.Load(),
		Rotations:    w.stats.rotations.Load(),
		Compactions:  w.stats.compactions.Load(),
		SuffixTruncs: w.stats.suffixTruncs.Load(),
	}
}
