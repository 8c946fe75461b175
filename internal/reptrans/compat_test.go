package reptrans

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ffwd/internal/replica"
	"ffwd/internal/replog"
)

// The replication wire format is pinned byte for byte: testdata/compat
// holds one frame of each type as an earlier build encoded it, so a
// leader and a follower built from different versions still talk.
// TestWireRoundTrip decodes these encoders' output; this test touches
// only the encoders, which keeps it buildable against any version of
// the package.
func TestCompatGoldenFrames(t *testing.T) {
	snap := replog.EncodeSnapshot(&replica.Snapshot{LastIndex: 10, LastTerm: 2, State: []byte("state"),
		Ledger: map[uint64]replica.Applied{9: {Seq: 4, Ret: 1}}})
	for _, c := range []struct {
		name string
		enc  []byte
	}{
		{"hello.bin", encodeHello(nil, hello{Epoch: 7, Term: 2})},
		{"helloack.bin", encodeHelloAck(nil, helloAck{OK: true, Epoch: 7, Term: 2, LastIndex: 41})},
		{"append.bin", encodeAppend(nil, appendFrame{Seq: 11, Term: 2, PrevIndex: 41, PrevTerm: 2, Commit: 40,
			Entries: []replica.Entry{wireEntry(42), wireEntry(43)}})},
		{"appendack.bin", encodeAppendAck(nil, appendAck{Seq: 11, OK: true, Match: 43, Term: 2})},
		{"snap.bin", encodeSnap(nil, snapFrame{Seq: 13, Term: 2, Data: snap})},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "compat", c.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.enc, want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", c.name, c.enc, want)
		}
	}
}
