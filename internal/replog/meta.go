package replog

import (
	"encoding/binary"
	"os"
	"path/filepath"

	"ffwd/internal/frame"
)

// meta.bin records the durable scalars that are not log entries: the
// highest replication term this member has accepted and how many times
// the process has booted from this directory (the boot counter salts
// client identities so a restarted leader never reissues one).
// Rewritten whole via temp+rename; a torn or missing file reads as
// zeros, which is always safe — terms only fence *stale* peers, and a
// lost term bump is re-learned from the next Hello.
const (
	metaFile  = "meta.bin"
	metaMagic = uint64(0x314154454d445746) // "FWDMETA1" little-endian
	metaLen   = 8*3 + 4
)

// Meta is the decoded meta.bin contents.
type Meta struct {
	Term  uint64
	Boots uint64
}

func encodeMeta(m Meta) []byte {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, metaLen), metaMagic)
	buf = binary.LittleEndian.AppendUint64(buf, m.Term)
	buf = binary.LittleEndian.AppendUint64(buf, m.Boots)
	return frame.AppendCRC(buf, 0)
}

// loadMeta reads dir's meta.bin; a missing, short, or corrupt file is
// the zero Meta.
func loadMeta(dir string) Meta {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if _, ok := frame.CheckCRC(data); err != nil || len(data) != metaLen || !ok ||
		binary.LittleEndian.Uint64(data[0:]) != metaMagic {
		return Meta{}
	}
	return Meta{
		Term:  binary.LittleEndian.Uint64(data[8:]),
		Boots: binary.LittleEndian.Uint64(data[16:]),
	}
}

// saveMeta atomically rewrites dir's meta.bin.
func saveMeta(dir string, m Meta) error {
	return writeFileAtomic(filepath.Join(dir, metaFile), encodeMeta(m))
}
