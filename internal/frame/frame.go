// Package frame is the one length+CRC32-C framing every durable and
// replicated byte stream in the repository shares, in two forms:
//
//	header frame   [len u32][crc u32][body]   (WAL records, reptrans frames)
//	trailer seal   [body][crc u32]            (meta.bin, snapshots, wireproto FlagCRC)
//
// Both are little-endian; crc is CRC32-C (Castagnoli, hardware-accelerated
// on amd64/arm64) over body, and len counts body only.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderLen is the size of a header frame's [len][crc] prefix.
const HeaderLen = 8

// growStep bounds how far ahead of the bytes actually received a Reader
// grows its body buffer (append's amortized rounding aside), so a corrupt
// or hostile length prefix costs what the peer sent, not what it declared.
const growStep = 1 << 19

var (
	ErrLength = errors.New("frame: length out of range")
	ErrCRC    = errors.New("frame: CRC mismatch")

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Begin reserves a header frame's prefix on buf and returns its offset;
// the caller appends the body in place and End seals it, so encoding
// into a reused buffer allocates nothing.
func Begin(buf []byte) ([]byte, int) {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0), len(buf)
}

// End fills in the length and CRC of the frame begun at off.
func End(buf []byte, off int) []byte {
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-HeaderLen))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(buf[off+HeaderLen:], castagnoli))
	return buf
}

// AppendCRC seals buf[from:] with a trailing CRC32-C.
func AppendCRC(buf []byte, from int) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[from:], castagnoli))
}

// CheckCRC splits a sealed b into its body and reports whether the
// trailing CRC matches it (never for b shorter than the CRC).
func CheckCRC(b []byte) (body []byte, ok bool) {
	n := max(len(b)-4, 0)
	return b[:n], len(b) >= 4 && crc32.Checksum(b[:n], castagnoli) == binary.LittleEndian.Uint32(b[n:])
}

// Reader reads header frames off R, reusing one body buffer: a returned
// body is valid until the next call. Max bounds a frame's length.
type Reader struct {
	R    io.Reader
	Max  int
	hdr  [HeaderLen]byte
	body []byte
}

// Next reads one frame and returns its body. It consumes exactly the
// frame's bytes and fails with io.EOF at a clean frame boundary,
// io.ErrUnexpectedEOF inside a frame, ErrLength for a zero or over-Max
// length, ErrCRC, or R's own error.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.R, r.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[:]))
	if n == 0 || n > r.Max {
		return nil, ErrLength
	}
	r.body = r.body[:0]
	for m := 0; m < n; m = len(r.body) {
		r.body = slices.Grow(r.body, min(n-m, growStep))
		r.body = r.body[:min(n, cap(r.body))]
		if _, err := io.ReadFull(r.R, r.body[m:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if crc32.Checksum(r.body, castagnoli) != binary.LittleEndian.Uint32(r.hdr[4:]) {
		return nil, ErrCRC
	}
	return r.body, nil
}
