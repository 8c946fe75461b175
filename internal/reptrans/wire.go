package reptrans

import (
	"encoding/binary"
	"fmt"
	"io"

	"ffwd/internal/frame"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// Wire format: one internal/frame header frame per message, whose body
// is a type byte and a little-endian payload. The frame types:
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

	// snapHeaderLen is a snap frame body's fixed part: type, seq, term
	// and the snapshot's length.
	snapHeaderLen = 1 + 8 + 8 + 4
	// maxFrameLen bounds one frame so a corrupt or hostile length prefix
	// is refused outright. Snapshots dominate frame size, so the bound is
	// the largest snapshot replog will load, framed: anything a follower
	// could recover from disk it can also be sent.
	maxFrameLen = replog.MaxSnapshotLen + snapHeaderLen
)

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

func putBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func encodeHello(buf []byte, h hello) []byte {
	buf, off := frame.Begin(buf)
	buf = append(buf, frameHello)
	buf = binary.LittleEndian.AppendUint64(buf, h.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, h.Term)
	return frame.End(buf, off)
}

func encodeHelloAck(buf []byte, h helloAck) []byte {
	buf, off := frame.Begin(buf)
	buf = append(buf, frameHelloAck)
	buf = putBool(buf, h.OK)
	buf = binary.LittleEndian.AppendUint64(buf, h.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, h.Term)
	buf = binary.LittleEndian.AppendUint64(buf, h.LastIndex)
	return frame.End(buf, off)
}

func encodeAppend(buf []byte, a appendFrame) []byte {
	buf, off := frame.Begin(buf)
	buf = append(buf, frameAppend)
	buf = binary.LittleEndian.AppendUint64(buf, a.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, a.Term)
	buf = binary.LittleEndian.AppendUint64(buf, a.PrevIndex)
	buf = binary.LittleEndian.AppendUint64(buf, a.PrevTerm)
	buf = binary.LittleEndian.AppendUint64(buf, a.Commit)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Entries)))
	for _, e := range a.Entries {
		buf = replog.EncodeEntry(buf, e)
	}
	return frame.End(buf, off)
}

func encodeAppendAck(buf []byte, a appendAck) []byte {
	buf, off := frame.Begin(buf)
	buf = append(buf, frameAppendAck)
	buf = binary.LittleEndian.AppendUint64(buf, a.Seq)
	buf = putBool(buf, a.OK)
	buf = binary.LittleEndian.AppendUint64(buf, a.Match)
	buf = binary.LittleEndian.AppendUint64(buf, a.Term)
	return frame.End(buf, off)
}

func encodeSnap(buf []byte, s snapFrame) []byte {
	buf, off := frame.Begin(buf)
	buf = append(buf, frameSnap)
	buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, s.Term)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Data)))
	buf = append(buf, s.Data...)
	return frame.End(buf, off)
}

// msg is one decoded wire frame; exactly one field past typ is set.
type msg struct {
	typ      uint8
	hello    hello
	helloAck helloAck
	app      appendFrame
	ack      appendAck
	snap     snapFrame
}

// msgReader reads messages off one connection, from its hello onward,
// into buffers it reuses: a decoded message's Entries and snapshot Data
// alias them and are valid only until the next read.
type msgReader struct {
	fr   frame.Reader
	ents []replica.Entry
}

func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{fr: frame.Reader{R: r, Max: maxFrameLen}}
}

// read reads and decodes one message. Errors are fatal for the
// connection: framing is lost once a frame fails to parse.
func (mr *msgReader) read() (msg, error) {
	body, err := mr.fr.Next()
	if err != nil {
		return msg{}, err
	}
	return mr.decode(body)
}

// decode parses one frame body (type byte and payload).
func (mr *msgReader) decode(body []byte) (msg, error) {
	f := msg{typ: body[0]}
	p := body[1:]
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(p[off:]) }
	switch f.typ {
	case frameHello:
		if len(p) != 16 {
			return msg{}, fmt.Errorf("reptrans: hello payload %d bytes", len(p))
		}
		f.hello = hello{Epoch: u64(0), Term: u64(8)}
	case frameHelloAck:
		if len(p) != 25 {
			return msg{}, fmt.Errorf("reptrans: helloAck payload %d bytes", len(p))
		}
		f.helloAck = helloAck{OK: p[0] == 1, Epoch: u64(1), Term: u64(9), LastIndex: u64(17)}
	case frameAppend:
		if len(p) < 44 {
			return msg{}, fmt.Errorf("reptrans: append payload %d bytes", len(p))
		}
		count := binary.LittleEndian.Uint32(p[40:])
		if uint64(len(p)) != 44+uint64(count)*replog.EntryLen {
			return msg{}, fmt.Errorf("reptrans: append count %d inconsistent with %d bytes", count, len(p))
		}
		f.app = appendFrame{Seq: u64(0), Term: u64(8), PrevIndex: u64(16), PrevTerm: u64(24), Commit: u64(32)}
		if count > 0 {
			mr.ents = mr.ents[:0]
			for off := 44; off < len(p); off += replog.EntryLen {
				e, err := replog.DecodeEntry(p[off : off+replog.EntryLen])
				if err != nil {
					return msg{}, err
				}
				mr.ents = append(mr.ents, e)
			}
			f.app.Entries = mr.ents
		}
	case frameAppendAck:
		if len(p) != 25 {
			return msg{}, fmt.Errorf("reptrans: appendAck payload %d bytes", len(p))
		}
		f.ack = appendAck{Seq: u64(0), OK: p[8] == 1, Match: u64(9), Term: u64(17)}
	case frameSnap:
		if len(body) < snapHeaderLen {
			return msg{}, fmt.Errorf("reptrans: snap payload %d bytes", len(p))
		}
		dl := binary.LittleEndian.Uint32(p[16:])
		if uint64(len(body)) != snapHeaderLen+uint64(dl) {
			return msg{}, fmt.Errorf("reptrans: snap length %d inconsistent", dl)
		}
		f.snap = snapFrame{Seq: u64(0), Term: u64(8), Data: body[snapHeaderLen:]}
	default:
		return msg{}, fmt.Errorf("reptrans: unknown frame type %d", f.typ)
	}
	return f, nil
}
