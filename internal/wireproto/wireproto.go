// Package wireproto is the binary dataplane protocol of ffwdserve: a
// length-prefixed, little-endian frame format carrying the same
// key-value command set as the text protocol, built for zero-allocation
// encode/decode into caller-provided buffers and out-of-order response
// pipelining by request ID.
//
// Frame layout (everything little-endian):
//
//	frame := [len u32][body]
//	body  := [type u8][flags u8][id u64][payload...][crc u32?]
//
// len counts the body only. FlagCRC in flags appends a CRC32-C over the
// rest of the body (type, flags, id, payload) as the body's last four
// bytes; responses mirror the flag of the request they answer, so a
// client chooses per request whether to pay for integrity checking —
// internal/frame's trailer seal, made optional.
//
// Request payloads:
//
//	OpGet    key u64
//	OpSet    key u64, val u64
//	OpDel    key u64
//	OpMGet   n u16, n × key u64   (1 ≤ n ≤ MGetMax)
//	OpLen    (empty)
//	OpStats  (empty)
//	OpSetTTL key u64, val u64, ttl u64
//	OpTouch  key u64, ttl u64
//
// TTLs are relative tick counts; the server owns the clock and computes
// the absolute deadline when it applies the operation (server-owned
// time), so clients never ship wall-clock values. ttl 0 means no expiry.
//
// Response payloads:
//
//	RespValue     val u64
//	RespNotFound  (empty)
//	RespStored    (empty)
//	RespDeleted   (empty)
//	RespValues    n u16, n × val u64 (MissValue marks a missing key)
//	RespLen       n u64
//	RespStats     hits u64, misses u64, evictions u64, expired u64
//	RespError     code u16
//	RespBusy      (empty)
//	RespTouched   (empty; OpTouch on an absent/expired key answers
//	              RespNotFound)
//
// The request ID is an opaque u64 echoed verbatim in the response; the
// server may answer requests from one connection in any order, so a
// pipelining client matches responses to requests by ID, never by
// position. MissValue (2^64-1) is reserved: it cannot be stored, and it
// marks absent keys in RespValues.
//
// Decoding never allocates when the caller provides key/value scratch
// (see Request.Keys and Response.Vals) and never over-reads: a frame
// whose declared length exceeds MaxFrame is rejected from the four-byte
// prefix alone, before any payload is consumed.
package wireproto

import (
	"encoding/binary"
	"errors"

	"ffwd/internal/frame"
)

// Ops (requests) and response types. Response types have the high bit
// set so a stream desynchronization shows up as an unknown type
// immediately.
const (
	// OpNop marks a request slot the frontend has already answered
	// (e.g. a reserved-value SET); executors skip it. It never appears
	// on the wire.
	OpNop uint8 = 0

	OpGet    uint8 = 0x01
	OpSet    uint8 = 0x02
	OpDel    uint8 = 0x03
	OpMGet   uint8 = 0x04
	OpLen    uint8 = 0x05
	OpStats  uint8 = 0x06
	OpSetTTL uint8 = 0x07
	OpTouch  uint8 = 0x08

	RespValue    uint8 = 0x81
	RespNotFound uint8 = 0x82
	RespStored   uint8 = 0x83
	RespDeleted  uint8 = 0x84
	RespValues   uint8 = 0x85
	RespLen      uint8 = 0x86
	RespStats    uint8 = 0x87
	RespError    uint8 = 0x88
	RespBusy     uint8 = 0x89
	RespTouched  uint8 = 0x8a
)

// FlagCRC marks a body that carries a trailing CRC32-C.
const FlagCRC uint8 = 1 << 0

// flagsKnown masks the flag bits this protocol version understands;
// unknown flags are a decode error rather than silently ignored.
const flagsKnown = FlagCRC

// RespError codes.
const (
	CodeMalformed     uint16 = 1 // undecodable payload
	CodeBadOp         uint16 = 2 // unknown request type
	CodeTooManyKeys   uint16 = 3 // MGet over MGetMax
	CodeValueReserved uint16 = 4 // Set of MissValue
	CodeInternal      uint16 = 5 // executor produced no result
)

const (
	// MGetMax bounds the keys of one MGet, mirroring the text
	// protocol's mget limit: one frame cannot monopolize a shard
	// executor.
	MGetMax = 64

	// MaxFrame bounds one body so a corrupt or hostile length prefix
	// cannot drive an unbounded read or allocation. The largest legal
	// body (an MGet with CRC) is 12+2+8·MGetMax+4 = 530 bytes; the
	// bound leaves room for protocol growth.
	MaxFrame = 1 << 16

	// headerLen is the fixed body prefix: type, flags, id.
	headerLen = 1 + 1 + 8

	// MissValue is the reserved value: it cannot be stored, and it
	// marks a missing key in RespValues.
	MissValue = ^uint64(0)
)

// Typed decode errors. ErrShort is retryable — the buffer simply does
// not hold a complete frame yet; every other error is fatal for the
// stream, because framing is lost.
var (
	ErrShort      = errors.New("wireproto: incomplete frame")
	ErrTooLarge   = errors.New("wireproto: frame length out of range")
	ErrCRC        = errors.New("wireproto: frame CRC mismatch")
	ErrBadOp      = errors.New("wireproto: unknown frame type")
	ErrBadPayload = errors.New("wireproto: malformed payload")
	ErrBadFlags   = errors.New("wireproto: unknown flags")
)

// Request is one decoded request frame.
type Request struct {
	Op    uint8
	Flags uint8
	ID    uint64
	Key   uint64
	Val   uint64
	// TTL is the relative expiry tick count of OpSetTTL and OpTouch
	// (0 = no expiry).
	TTL uint64
	// Keys holds the MGet key list. DecodeRequest fills it in place
	// when its capacity suffices (pass a [MGetMax]uint64-backed slice
	// for allocation-free decoding) and grows it otherwise.
	Keys []uint64
}

// Response is one decoded response frame.
type Response struct {
	Type                    uint8
	Flags                   uint8
	ID                      uint64
	Val                     uint64 // RespValue, RespLen
	Code                    uint16 // RespError
	Hits, Misses, Evictions uint64 // RespStats
	Expired                 uint64 // RespStats
	// Vals holds the RespValues list (MissValue = absent). Like
	// Request.Keys, it is filled in place when capacity suffices.
	Vals []uint64
}

// Split scans buf for one complete frame. On success it returns the
// frame's body and the number of bytes consumed (prefix + body). It
// returns ErrShort when buf does not yet hold a complete frame and
// ErrTooLarge when the declared length can never be valid — the caller
// must drop the connection, since resynchronization is impossible.
func Split(buf []byte) (body []byte, consumed int, err error) {
	if len(buf) < 4 {
		return nil, 0, ErrShort
	}
	n := binary.LittleEndian.Uint32(buf)
	if n < headerLen || n > MaxFrame {
		return nil, 0, ErrTooLarge
	}
	if uint32(len(buf)-4) < n {
		return nil, 0, ErrShort
	}
	return buf[4 : 4+n], 4 + int(n), nil
}

// header appends the frame length placeholder and body prefix,
// returning the offset of the length word for backpatching.
func header(buf []byte, typ, flags uint8, id uint64) ([]byte, int) {
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0, typ, flags)
	return binary.LittleEndian.AppendUint64(buf, id), off
}

// seal backpatches the length word and, when flags carry FlagCRC,
// appends the CRC32-C of the body.
func seal(buf []byte, off int, flags uint8) []byte {
	if flags&FlagCRC != 0 {
		buf = frame.AppendCRC(buf, off+4)
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
	return buf
}

// AppendRequest appends r as one frame to buf and returns the extended
// buffer. It never allocates beyond buf's growth.
func AppendRequest(buf []byte, r *Request) []byte {
	buf, off := header(buf, r.Op, r.Flags, r.ID)
	switch r.Op {
	case OpGet, OpDel:
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
	case OpSet:
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		buf = binary.LittleEndian.AppendUint64(buf, r.Val)
	case OpSetTTL:
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		buf = binary.LittleEndian.AppendUint64(buf, r.Val)
		buf = binary.LittleEndian.AppendUint64(buf, r.TTL)
	case OpTouch:
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		buf = binary.LittleEndian.AppendUint64(buf, r.TTL)
	case OpMGet:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Keys)))
		for _, k := range r.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
	case OpLen, OpStats:
	default:
		panic("wireproto: AppendRequest of unknown op")
	}
	return seal(buf, off, r.Flags)
}

// AppendResponse appends r as one frame to buf and returns the extended
// buffer.
func AppendResponse(buf []byte, r *Response) []byte {
	buf, off := header(buf, r.Type, r.Flags, r.ID)
	switch r.Type {
	case RespValue, RespLen:
		buf = binary.LittleEndian.AppendUint64(buf, r.Val)
	case RespNotFound, RespStored, RespDeleted, RespBusy, RespTouched:
	case RespValues:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Vals)))
		for _, v := range r.Vals {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	case RespStats:
		buf = binary.LittleEndian.AppendUint64(buf, r.Hits)
		buf = binary.LittleEndian.AppendUint64(buf, r.Misses)
		buf = binary.LittleEndian.AppendUint64(buf, r.Evictions)
		buf = binary.LittleEndian.AppendUint64(buf, r.Expired)
	case RespError:
		buf = binary.LittleEndian.AppendUint16(buf, r.Code)
	default:
		panic("wireproto: AppendResponse of unknown type")
	}
	return seal(buf, off, r.Flags)
}

// checkBody validates the shared body prefix and CRC, returning the
// payload (CRC stripped when present).
func checkBody(body []byte) (typ, flags uint8, id uint64, payload []byte, err error) {
	if len(body) < headerLen {
		return 0, 0, 0, nil, ErrBadPayload
	}
	typ, flags = body[0], body[1]
	if flags&^flagsKnown != 0 {
		return 0, 0, 0, nil, ErrBadFlags
	}
	id = binary.LittleEndian.Uint64(body[2:])
	payload = body[headerLen:]
	if flags&FlagCRC != 0 {
		if len(payload) < 4 {
			return 0, 0, 0, nil, ErrBadPayload
		}
		var ok bool
		if body, ok = frame.CheckCRC(body); !ok {
			return 0, 0, 0, nil, ErrCRC
		}
		payload = body[headerLen:]
	}
	return typ, flags, id, payload, nil
}

// grow returns ks with length n, reusing its backing array when the
// capacity suffices.
func grow(ks []uint64, n int) []uint64 {
	if cap(ks) >= n {
		return ks[:n]
	}
	return make([]uint64, n)
}

// DecodeRequest decodes one request body (as returned by Split) into
// req. Allocation-free when req.Keys has capacity MGetMax. Errors are
// typed: ErrCRC, ErrBadOp, ErrBadPayload, ErrBadFlags. req's contents
// are unspecified on error.
func DecodeRequest(body []byte, req *Request) error {
	typ, flags, id, p, err := checkBody(body)
	if err != nil {
		return err
	}
	req.Op, req.Flags, req.ID = typ, flags, id
	req.Key, req.Val, req.TTL = 0, 0, 0
	req.Keys = req.Keys[:0]
	switch typ {
	case OpGet, OpDel:
		if len(p) != 8 {
			return ErrBadPayload
		}
		req.Key = binary.LittleEndian.Uint64(p)
	case OpSet:
		if len(p) != 16 {
			return ErrBadPayload
		}
		req.Key = binary.LittleEndian.Uint64(p)
		req.Val = binary.LittleEndian.Uint64(p[8:])
	case OpSetTTL:
		if len(p) != 24 {
			return ErrBadPayload
		}
		req.Key = binary.LittleEndian.Uint64(p)
		req.Val = binary.LittleEndian.Uint64(p[8:])
		req.TTL = binary.LittleEndian.Uint64(p[16:])
	case OpTouch:
		if len(p) != 16 {
			return ErrBadPayload
		}
		req.Key = binary.LittleEndian.Uint64(p)
		req.TTL = binary.LittleEndian.Uint64(p[8:])
	case OpMGet:
		if len(p) < 2 {
			return ErrBadPayload
		}
		n := int(binary.LittleEndian.Uint16(p))
		if n < 1 || n > MGetMax {
			return ErrBadPayload
		}
		if len(p) != 2+8*n {
			return ErrBadPayload
		}
		req.Keys = grow(req.Keys, n)
		for i := 0; i < n; i++ {
			req.Keys[i] = binary.LittleEndian.Uint64(p[2+8*i:])
		}
	case OpLen, OpStats:
		if len(p) != 0 {
			return ErrBadPayload
		}
	default:
		return ErrBadOp
	}
	return nil
}

// DecodeResponse decodes one response body (as returned by Split) into
// resp. Allocation-free when resp.Vals has capacity MGetMax. Errors are
// typed as in DecodeRequest.
func DecodeResponse(body []byte, resp *Response) error {
	typ, flags, id, p, err := checkBody(body)
	if err != nil {
		return err
	}
	resp.Type, resp.Flags, resp.ID = typ, flags, id
	resp.Val, resp.Code = 0, 0
	resp.Hits, resp.Misses, resp.Evictions, resp.Expired = 0, 0, 0, 0
	resp.Vals = resp.Vals[:0]
	switch typ {
	case RespValue, RespLen:
		if len(p) != 8 {
			return ErrBadPayload
		}
		resp.Val = binary.LittleEndian.Uint64(p)
	case RespNotFound, RespStored, RespDeleted, RespBusy, RespTouched:
		if len(p) != 0 {
			return ErrBadPayload
		}
	case RespValues:
		if len(p) < 2 {
			return ErrBadPayload
		}
		n := int(binary.LittleEndian.Uint16(p))
		if n > MGetMax || len(p) != 2+8*n {
			return ErrBadPayload
		}
		resp.Vals = grow(resp.Vals, n)
		for i := 0; i < n; i++ {
			resp.Vals[i] = binary.LittleEndian.Uint64(p[2+8*i:])
		}
	case RespStats:
		if len(p) != 32 {
			return ErrBadPayload
		}
		resp.Hits = binary.LittleEndian.Uint64(p)
		resp.Misses = binary.LittleEndian.Uint64(p[8:])
		resp.Evictions = binary.LittleEndian.Uint64(p[16:])
		resp.Expired = binary.LittleEndian.Uint64(p[24:])
	case RespError:
		if len(p) != 2 {
			return ErrBadPayload
		}
		resp.Code = binary.LittleEndian.Uint16(p)
	default:
		return ErrBadOp
	}
	return nil
}
