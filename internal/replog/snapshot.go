package replog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ffwd/internal/frame"
	"ffwd/internal/replica"
)

// Snapshot files: snap-%016x.snap (hex = LastIndex), written whole via
// temp+rename so installation is atomic. Layout, little-endian:
//
//	magic u64 | lastIndex u64 | lastTerm u64
//	stateLen u32 | state bytes
//	ledgerLen u32 | (clientID u64, seq u64, ret u64) * ledgerLen
//	crc u32   — frame.AppendCRC over everything before it
const (
	snapMagic  = uint64(0x3150414e53445746) // "FWDSNAP1" little-endian
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	// MaxSnapshotLen bounds a snapshot image so a corrupt header cannot
	// drive an absurd allocation at load; reptrans derives its frame
	// bound from it, so every snapshot a member loads can also be shipped.
	MaxSnapshotLen = 1 << 30
)

func snapName(last uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, last, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// EncodeSnapshot serializes s (CRC included), the wire and disk format
// shared by replog and reptrans.
func EncodeSnapshot(s *replica.Snapshot) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, 8*3+4+len(s.State)+4+24*len(s.Ledger)+4)
	buf = le.AppendUint64(buf, snapMagic)
	buf = le.AppendUint64(buf, s.LastIndex)
	buf = le.AppendUint64(buf, s.LastTerm)
	buf = le.AppendUint32(buf, uint32(len(s.State)))
	buf = append(buf, s.State...)
	buf = le.AppendUint32(buf, uint32(len(s.Ledger)))
	// Deterministic order so identical snapshots encode identically.
	ids := make([]uint64, 0, len(s.Ledger))
	for id := range s.Ledger {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := s.Ledger[id]
		buf = le.AppendUint64(buf, id)
		buf = le.AppendUint64(buf, a.Seq)
		buf = le.AppendUint64(buf, a.Ret)
	}
	return frame.AppendCRC(buf, 0)
}

// DecodeSnapshot parses and CRC-validates an EncodeSnapshot image.
func DecodeSnapshot(buf []byte) (*replica.Snapshot, error) {
	if len(buf) < 8*3+4+4+4 {
		return nil, fmt.Errorf("replog: snapshot too short (%d bytes)", len(buf))
	}
	body, ok := frame.CheckCRC(buf)
	if !ok {
		return nil, fmt.Errorf("replog: snapshot CRC mismatch")
	}
	if binary.LittleEndian.Uint64(body[0:]) != snapMagic {
		return nil, fmt.Errorf("replog: snapshot bad magic")
	}
	s := &replica.Snapshot{
		LastIndex: binary.LittleEndian.Uint64(body[8:]),
		LastTerm:  binary.LittleEndian.Uint64(body[16:]),
	}
	off := 24
	stateLen := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if stateLen < 0 || off+stateLen > len(body) {
		return nil, fmt.Errorf("replog: snapshot state length %d overruns", stateLen)
	}
	s.State = append([]byte(nil), body[off:off+stateLen]...)
	off += stateLen
	if off+4 > len(body) {
		return nil, fmt.Errorf("replog: snapshot ledger header missing")
	}
	n := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if n < 0 || off+24*n != len(body) {
		return nil, fmt.Errorf("replog: snapshot ledger length %d inconsistent", n)
	}
	s.Ledger = make(map[uint64]replica.Applied, n)
	for i := 0; i < n; i++ {
		id := binary.LittleEndian.Uint64(body[off:])
		s.Ledger[id] = replica.Applied{
			Seq: binary.LittleEndian.Uint64(body[off+8:]),
			Ret: binary.LittleEndian.Uint64(body[off+16:]),
		}
		off += 24
	}
	return s, nil
}

// saveSnapshot persists s into dir atomically, unlinks what it
// supersedes, and fsyncs the directory once, after the unlinks (a crash
// before that sync leaves the old snapshot, the new one, or both; load
// picks the newest valid). When scan is false the caller vouches that
// the previous save left exactly one other snapshot file, prev, so that
// is all there is to unlink; otherwise the directory is scanned for
// older snapshots and stray temps. crash arms the chaos harness's
// mid-install kill (temp written, never renamed).
func saveSnapshot(dir string, s *replica.Snapshot, crash *CrashPoint, prev uint64, scan bool) (int, error) {
	data := EncodeSnapshot(s)
	name := snapName(s.LastIndex)
	if crash.onSnapshot() {
		// Write the temp in full — the realistic worst case: everything
		// but the rename happened — then die.
		tmp, err := os.CreateTemp(dir, name+".tmp-*")
		if err == nil {
			tmp.Write(data)
			tmp.Sync()
		}
		crash.kill()
	}
	if err := writeTempRename(filepath.Join(dir, name), data); err != nil {
		return 0, err
	}
	// Unlink what the new file supersedes. A failure here is ignorable
	// clutter, not lost data, but it is reported so the next save scans.
	stale := []string{snapName(prev)}
	if scan {
		des, err := os.ReadDir(dir)
		if err != nil {
			return len(data), err
		}
		stale = stale[:0]
		for _, de := range des {
			n := de.Name()
			_, isSnap := parseSnapName(n)
			if isSnap || (strings.HasPrefix(n, snapPrefix) && strings.Contains(n, ".tmp-")) {
				stale = append(stale, n)
			}
		}
	}
	for _, n := range stale {
		if n == name {
			continue
		}
		if err := os.Remove(filepath.Join(dir, n)); err != nil && !os.IsNotExist(err) {
			return len(data), err
		}
	}
	return len(data), syncDir(dir)
}

// loadSnapshot returns the newest valid snapshot in dir (nil if none)
// and removes stray temp files from interrupted installs. Invalid
// snapshot files are skipped, not deleted: recovery should not destroy
// evidence.
func loadSnapshot(dir string) (*replica.Snapshot, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var idxs []uint64
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, snapPrefix) && strings.Contains(name, ".tmp-") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if idx, ok := parseSnapName(name); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] > idxs[j] })
	for _, idx := range idxs {
		path := filepath.Join(dir, snapName(idx))
		if uint64(fileSize(path)) > MaxSnapshotLen {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		s, derr := DecodeSnapshot(data)
		if derr != nil {
			continue // torn or corrupt: fall back to the previous one
		}
		return s, nil
	}
	return nil, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
