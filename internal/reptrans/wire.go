package reptrans

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// Wire format: length-prefixed binary frames, little-endian.
//
//	[len u32][crc u32][type u8][payload ...]
//
// len counts type+payload; crc is CRC32-C over type+payload. The frame
// types:
//
//	hello      leader→follower on (re)connect: session epoch + term
//	helloAck   follower→leader: admission verdict + follower's log tail
//	append     leader→follower: prev-checked entry suffix + commit cursor
//	appendAck  follower→leader: matched/hint answer for one append seq
//	snap       leader→follower: full snapshot install (replog encoding)
//
// Heartbeats are empty append frames: they prove liveness, carry the
// commit cursor, and re-run the consistency check for free. A snapshot
// install is acked with an appendAck whose match is the snapshot
// boundary.
const (
	frameHello uint8 = iota + 1
	frameHelloAck
	frameAppend
	frameAppendAck
	frameSnap

	frameHeaderLen = 8
	// maxFrameLen bounds one frame so a corrupt or hostile length prefix
	// cannot drive an absurd allocation. Snapshots dominate frame size.
	maxFrameLen = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hello is the leader's session-opening frame. Epoch increments on
// every (re)connect the leader makes, so a delayed duplicate connection
// from before a reconnect is self-evidently stale. Term is the leader's
// current term (its persisted boot counter in pinned-leader mode).
type hello struct {
	Epoch uint64
	Term  uint64
}

// helloAck is the follower's admission verdict. OK false means the
// session was rejected (stale epoch or stale term); Epoch/Term echo the
// follower's current view so the leader can log why. LastIndex is the
// follower's durable log tail, the leader's starting probe point.
type helloAck struct {
	OK        bool
	Epoch     uint64
	Term      uint64
	LastIndex uint64
}

// appendFrame is one append RPC: the raft consistency check point plus
// the entry suffix and commit cursor. Seq correlates the ack; an empty
// Entries slice is a heartbeat/commit push.
type appendFrame struct {
	Seq       uint64
	Term      uint64
	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Entries   []replica.Entry
}

// appendAck answers one appendFrame (or snapFrame) by Seq. OK true
// means the follower durably holds everything through Match; OK false
// means the consistency check failed and Match is the highest index the
// follower can vouch for (the leader's next probe hint), or the session
// is fenced (Term higher than the frame's).
type appendAck struct {
	Seq   uint64
	OK    bool
	Match uint64
	Term  uint64
}

// snapFrame installs a full snapshot (replog's CRC-sealed encoding).
type snapFrame struct {
	Seq  uint64
	Term uint64
	Data []byte
}

func put64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func put32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func putBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// beginFrame reserves a frame header on buf and writes the type byte;
// the encoder appends the payload in place and endFrame seals it, so
// encoding into a reused buffer allocates nothing.
func beginFrame(buf []byte, typ uint8) ([]byte, int) {
	off := len(buf)
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ), off
}

// endFrame fills in the length and CRC of the frame begun at off.
func endFrame(buf []byte, off int) []byte {
	body := buf[off+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(body, castagnoli))
	return buf
}

func encodeHello(buf []byte, h hello) []byte {
	buf, off := beginFrame(buf, frameHello)
	buf = put64(buf, h.Epoch)
	buf = put64(buf, h.Term)
	return endFrame(buf, off)
}

func encodeHelloAck(buf []byte, h helloAck) []byte {
	buf, off := beginFrame(buf, frameHelloAck)
	buf = putBool(buf, h.OK)
	buf = put64(buf, h.Epoch)
	buf = put64(buf, h.Term)
	buf = put64(buf, h.LastIndex)
	return endFrame(buf, off)
}

func encodeAppend(buf []byte, a appendFrame) []byte {
	buf, off := beginFrame(buf, frameAppend)
	buf = put64(buf, a.Seq)
	buf = put64(buf, a.Term)
	buf = put64(buf, a.PrevIndex)
	buf = put64(buf, a.PrevTerm)
	buf = put64(buf, a.Commit)
	buf = put32(buf, uint32(len(a.Entries)))
	for _, e := range a.Entries {
		buf = replog.EncodeEntry(buf, e)
	}
	return endFrame(buf, off)
}

func encodeAppendAck(buf []byte, a appendAck) []byte {
	buf, off := beginFrame(buf, frameAppendAck)
	buf = put64(buf, a.Seq)
	buf = putBool(buf, a.OK)
	buf = put64(buf, a.Match)
	buf = put64(buf, a.Term)
	return endFrame(buf, off)
}

func encodeSnap(buf []byte, s snapFrame) []byte {
	buf, off := beginFrame(buf, frameSnap)
	buf = put64(buf, s.Seq)
	buf = put64(buf, s.Term)
	buf = put32(buf, uint32(len(s.Data)))
	buf = append(buf, s.Data...)
	return endFrame(buf, off)
}

// frame is one decoded wire frame; exactly one field past typ is set.
type frame struct {
	typ      uint8
	hello    hello
	helloAck helloAck
	app      appendFrame
	ack      appendAck
	snap     snapFrame
}

// frameReader reads frames off one connection into buffers it reuses:
// a decoded frame's Entries and snapshot Data alias them and are valid
// only until the next read.
type frameReader struct {
	r    io.Reader
	body []byte
	ents []replica.Entry
}

// readFrame reads one frame from r into fresh buffers (handshakes,
// tests); steady-state loops hold a frameReader instead.
func readFrame(r io.Reader) (frame, error) {
	fr := frameReader{r: r}
	return fr.read()
}

// read reads and validates one frame. Errors are fatal for the
// connection: framing is lost once a frame fails to parse.
func (fr *frameReader) read() (frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxFrameLen {
		return frame{}, fmt.Errorf("reptrans: frame length %d out of range", n)
	}
	if uint32(cap(fr.body)) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return frame{}, err
	}
	if crc32.Checksum(body, castagnoli) != crc {
		return frame{}, fmt.Errorf("reptrans: frame CRC mismatch")
	}
	f := frame{typ: body[0]}
	p := body[1:]
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(p[off:]) }
	switch f.typ {
	case frameHello:
		if len(p) != 16 {
			return frame{}, fmt.Errorf("reptrans: hello payload %d bytes", len(p))
		}
		f.hello = hello{Epoch: u64(0), Term: u64(8)}
	case frameHelloAck:
		if len(p) != 25 {
			return frame{}, fmt.Errorf("reptrans: helloAck payload %d bytes", len(p))
		}
		f.helloAck = helloAck{OK: p[0] == 1, Epoch: u64(1), Term: u64(9), LastIndex: u64(17)}
	case frameAppend:
		if len(p) < 44 {
			return frame{}, fmt.Errorf("reptrans: append payload %d bytes", len(p))
		}
		count := binary.LittleEndian.Uint32(p[40:])
		if uint64(len(p)) != 44+uint64(count)*replog.EntryLen {
			return frame{}, fmt.Errorf("reptrans: append count %d inconsistent with %d bytes", count, len(p))
		}
		f.app = appendFrame{Seq: u64(0), Term: u64(8), PrevIndex: u64(16), PrevTerm: u64(24), Commit: u64(32)}
		if count > 0 {
			fr.ents = fr.ents[:0]
			for off := 44; off < len(p); off += replog.EntryLen {
				e, err := replog.DecodeEntry(p[off : off+replog.EntryLen])
				if err != nil {
					return frame{}, err
				}
				fr.ents = append(fr.ents, e)
			}
			f.app.Entries = fr.ents
		}
	case frameAppendAck:
		if len(p) != 25 {
			return frame{}, fmt.Errorf("reptrans: appendAck payload %d bytes", len(p))
		}
		f.ack = appendAck{Seq: u64(0), OK: p[8] == 1, Match: u64(9), Term: u64(17)}
	case frameSnap:
		if len(p) < 20 {
			return frame{}, fmt.Errorf("reptrans: snap payload %d bytes", len(p))
		}
		dl := binary.LittleEndian.Uint32(p[16:])
		if uint64(len(p)) != 20+uint64(dl) {
			return frame{}, fmt.Errorf("reptrans: snap length %d inconsistent", dl)
		}
		f.snap = snapFrame{Seq: u64(0), Term: u64(8), Data: p[20:]}
	default:
		return frame{}, fmt.Errorf("reptrans: unknown frame type %d", f.typ)
	}
	return f, nil
}
