package replog

import (
	"encoding/binary"
	"fmt"
	"io"

	"ffwd/internal/frame"
	"ffwd/internal/replica"
)

// A WAL record is one internal/frame header frame whose body is the
// 49-byte fixed entry encoding below; the length prefix keeps the frame
// self-describing so future record kinds can ride the same scanner.
const (
	entryLen = 49
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
	fr := frame.Reader{R: r, Max: maxRecordLen}
	for off := start; ; {
		body, err := fr.Next()
		switch err {
		case nil:
		case io.EOF:
			return recs, off, false, nil
		case io.ErrUnexpectedEOF, frame.ErrLength, frame.ErrCRC:
			// A short, zero- or absurd-length, or mis-CRC'd record is a
			// torn write or corruption; either way validity ends here.
			return recs, off, true, nil
		default:
			return recs, off, false, err
		}
		e, derr := decodeEntry(body)
		if derr != nil {
			return recs, off, true, nil
		}
		size := int64(frame.HeaderLen + len(body))
		recs = append(recs, scanResult{entry: e, off: off, size: size})
		off += size
	}
}
