package reptrans

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"ffwd/internal/frame"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

func wireEntry(i uint64) replica.Entry {
	return replica.Entry{Index: i, Term: 3, ClientID: 9, Seq: i, Kind: replica.OpSet, Key: i * 2, Val: i * 5}
}

// readMsg reads one message off r with a fresh reader, for handshakes
// and one-shot checks.
func readMsg(r io.Reader) (msg, error) { return newMsgReader(r).read() }

func TestWireRoundTrip(t *testing.T) {
	var buf []byte
	buf = encodeHello(buf, hello{Epoch: 7, Term: 2})
	buf = encodeHelloAck(buf, helloAck{OK: true, Epoch: 7, Term: 2, LastIndex: 41})
	app := appendFrame{Seq: 11, Term: 2, PrevIndex: 41, PrevTerm: 2, Commit: 40,
		Entries: []replica.Entry{wireEntry(42), wireEntry(43)}}
	buf = encodeAppend(buf, app)
	buf = encodeAppend(buf, appendFrame{Seq: 12, Term: 2, PrevIndex: 43, PrevTerm: 3, Commit: 43}) // heartbeat
	buf = encodeAppendAck(buf, appendAck{Seq: 11, OK: true, Match: 43, Term: 2})
	buf = encodeSnap(buf, snapFrame{Seq: 13, Term: 2, Data: []byte("snapshot-bytes")})

	r := bytes.NewReader(buf)
	f, err := readMsg(r)
	if err != nil || f.typ != frameHello || f.hello != (hello{Epoch: 7, Term: 2}) {
		t.Fatalf("hello: %+v, %v", f, err)
	}
	f, err = readMsg(r)
	if err != nil || f.typ != frameHelloAck || f.helloAck != (helloAck{OK: true, Epoch: 7, Term: 2, LastIndex: 41}) {
		t.Fatalf("helloAck: %+v, %v", f, err)
	}
	f, err = readMsg(r)
	if err != nil || f.typ != frameAppend || !reflect.DeepEqual(f.app, app) {
		t.Fatalf("append: %+v, %v", f, err)
	}
	f, err = readMsg(r)
	if err != nil || f.typ != frameAppend || len(f.app.Entries) != 0 || f.app.Commit != 43 {
		t.Fatalf("heartbeat: %+v, %v", f, err)
	}
	f, err = readMsg(r)
	if err != nil || f.typ != frameAppendAck || f.ack != (appendAck{Seq: 11, OK: true, Match: 43, Term: 2}) {
		t.Fatalf("appendAck: %+v, %v", f, err)
	}
	f, err = readMsg(r)
	if err != nil || f.typ != frameSnap || string(f.snap.Data) != "snapshot-bytes" || f.snap.Seq != 13 {
		t.Fatalf("snap: %+v, %v", f, err)
	}
	if _, err := readMsg(r); err == nil {
		t.Fatalf("read past final frame succeeded")
	}
}

// Every single-byte flip and every truncation of a frame must be caught
// by the CRC/length checks, never parsed into a different frame.
func TestWireRejectsDamage(t *testing.T) {
	good := encodeAppend(nil, appendFrame{Seq: 1, Term: 1, PrevIndex: 4, PrevTerm: 1, Commit: 3,
		Entries: []replica.Entry{wireEntry(5)}})
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := readMsg(bytes.NewReader(bad)); err == nil {
			// A flip inside the length prefix may still frame a valid CRC
			// region only if it matches exactly — it cannot, because the CRC
			// covers the body whose boundaries the length defines.
			t.Fatalf("flipped byte %d still parsed", i)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, err := readMsg(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d bytes still parsed", n)
		}
	}
}

func TestWireBoundsLength(t *testing.T) {
	var hdr [8]byte
	hdr[0] = 0xff
	hdr[1] = 0xff
	hdr[2] = 0xff
	hdr[3] = 0x7f // ~2GB claimed length
	if _, err := readMsg(bytes.NewReader(hdr[:])); err == nil {
		t.Fatalf("absurd length accepted")
	}
}

// Every snapshot replog will load must fit in one snap frame, or a
// follower that needs it drops the connection on every resend and never
// catches up.
func TestSnapFrameBoundCoversSnapshots(t *testing.T) {
	f := encodeSnap(nil, snapFrame{Seq: 1, Term: 1, Data: make([]byte, 10)})
	if hdr := len(f) - frame.HeaderLen - 10; hdr != snapHeaderLen || snapHeaderLen != 21 {
		t.Fatalf("snap frame header is %d bytes, snapHeaderLen %d", hdr, snapHeaderLen)
	}
	if maxFrameLen != replog.MaxSnapshotLen+snapHeaderLen {
		t.Fatalf("maxFrameLen %d does not frame a %d-byte snapshot", maxFrameLen, replog.MaxSnapshotLen)
	}
}

// FuzzReptransDecode throws arbitrary frame bodies at the typed payload
// decode, and a snap frame's image at replog.DecodeSnapshot: neither may
// panic, and a body that decodes re-encodes to one that decodes the same.
func FuzzReptransDecode(f *testing.F) {
	snap := replog.EncodeSnapshot(&replica.Snapshot{LastIndex: 10, LastTerm: 2, State: []byte("state"),
		Ledger: map[uint64]replica.Applied{9: {Seq: 4, Ret: 1}}})
	for _, enc := range [][]byte{
		encodeHello(nil, hello{Epoch: 7, Term: 2}),
		encodeHelloAck(nil, helloAck{OK: true, Epoch: 7, Term: 2, LastIndex: 41}),
		encodeAppend(nil, appendFrame{Seq: 11, Term: 2, PrevIndex: 41, PrevTerm: 2, Commit: 40,
			Entries: []replica.Entry{wireEntry(42), wireEntry(43)}}),
		encodeAppend(nil, appendFrame{Seq: 12, Term: 2, PrevIndex: 43, PrevTerm: 3, Commit: 43}),
		encodeAppendAck(nil, appendAck{Seq: 11, OK: true, Match: 43, Term: 2}),
		encodeSnap(nil, snapFrame{Seq: 13, Term: 2, Data: snap}),
	} {
		f.Add(enc[frame.HeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // frame.Reader never returns an empty body
		}
		var mr msgReader
		m, err := mr.decode(body)
		if err != nil {
			return
		}
		var re []byte
		switch m.typ {
		case frameHello:
			re = encodeHello(nil, m.hello)
		case frameHelloAck:
			re = encodeHelloAck(nil, m.helloAck)
		case frameAppend:
			re = encodeAppend(nil, m.app)
		case frameAppendAck:
			re = encodeAppendAck(nil, m.ack)
		case frameSnap:
			replog.DecodeSnapshot(m.snap.Data)
			re = encodeSnap(nil, m.snap)
		default:
			t.Fatalf("decoded unknown type %d", m.typ)
		}
		var mr2 msgReader
		m2, err := mr2.decode(re[frame.HeaderLen:])
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-encoded %+v decodes as %+v, %v", m, m2, err)
		}
	})
}
