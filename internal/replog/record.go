package replog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ffwd/internal/replica"
)

// WAL record framing: [len u32][crc u32][payload], little-endian, where
// len is the payload length and crc is CRC32-C over the payload. An
// entry payload is the 49-byte fixed encoding below; the length prefix
// keeps the frame self-describing so future record kinds can ride the
// same scanner.
const (
	recHeaderLen = 8
	entryLen     = 49
	// maxRecordLen bounds one record so a corrupt length prefix cannot
	// drive a gigabyte allocation during recovery.
	maxRecordLen = 1 << 20
)

// EncodeEntry appends e's fixed 49-byte payload encoding to buf — the
// format shared by WAL records and reptrans append frames.
func EncodeEntry(buf []byte, e replica.Entry) []byte { return encodeEntry(buf, e) }

// DecodeEntry parses an EncodeEntry payload.
func DecodeEntry(b []byte) (replica.Entry, error) { return decodeEntry(b) }

// EntryLen is the size of one encoded entry.
const EntryLen = entryLen

// encodeEntry appends e's payload encoding to buf.
func encodeEntry(buf []byte, e replica.Entry) []byte {
	var b [entryLen]byte
	binary.LittleEndian.PutUint64(b[0:], e.Index)
	binary.LittleEndian.PutUint64(b[8:], e.Term)
	binary.LittleEndian.PutUint64(b[16:], e.ClientID)
	binary.LittleEndian.PutUint64(b[24:], e.Seq)
	b[32] = byte(e.Kind)
	binary.LittleEndian.PutUint64(b[33:], e.Key)
	binary.LittleEndian.PutUint64(b[41:], e.Val)
	return append(buf, b[:]...)
}

// decodeEntry parses an entry payload.
func decodeEntry(b []byte) (replica.Entry, error) {
	if len(b) != entryLen {
		return replica.Entry{}, fmt.Errorf("replog: entry payload is %d bytes, want %d", len(b), entryLen)
	}
	return replica.Entry{
		Index:    binary.LittleEndian.Uint64(b[0:]),
		Term:     binary.LittleEndian.Uint64(b[8:]),
		ClientID: binary.LittleEndian.Uint64(b[16:]),
		Seq:      binary.LittleEndian.Uint64(b[24:]),
		Kind:     replica.Op(b[32]),
		Key:      binary.LittleEndian.Uint64(b[33:]),
		Val:      binary.LittleEndian.Uint64(b[41:]),
	}, nil
}

// appendEntryRecord frames e onto buf — length, CRC, payload — encoding
// the payload in place so a batch of records costs no allocation beyond
// buf's own growth.
func appendEntryRecord(buf []byte, e replica.Entry) []byte {
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = encodeEntry(buf, e)
	payload := buf[off+recHeaderLen:]
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// scanResult reports one framed record read by scanRecords.
type scanResult struct {
	entry replica.Entry
	// off/size locate the record in the segment file, so truncation can
	// cut exactly at a record boundary.
	off  int64
	size int64
}

// scanRecords reads records from r (positioned after the segment
// header) until EOF or the first invalid record. It returns the valid
// records, the byte offset where validity ended, and whether the
// remainder was a torn tail (short/garbled trailing data) as opposed to
// a clean EOF. Any read error other than EOF is returned as err.
func scanRecords(r io.Reader, start int64) (recs []scanResult, validEnd int64, torn bool, err error) {
	off := start
	var hdr [recHeaderLen]byte
	for {
		n, rerr := io.ReadFull(r, hdr[:])
		if rerr == io.EOF {
			return recs, off, false, nil
		}
		if rerr == io.ErrUnexpectedEOF {
			return recs, off, n > 0, nil
		}
		if rerr != nil {
			return recs, off, false, rerr
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if plen == 0 || plen > maxRecordLen {
			// A zero or absurd length is either a torn header or
			// corruption; either way validity ends here.
			return recs, off, true, nil
		}
		payload := make([]byte, plen)
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return recs, off, true, nil
			}
			return recs, off, false, rerr
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return recs, off, true, nil
		}
		e, derr := decodeEntry(payload)
		if derr != nil {
			return recs, off, true, nil
		}
		size := int64(recHeaderLen) + int64(plen)
		recs = append(recs, scanResult{entry: e, off: off, size: size})
		off += size
	}
}
