package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// stream frames each body with Begin/End, back to back.
func stream(bodies ...[]byte) []byte {
	var buf []byte
	for _, b := range bodies {
		var off int
		buf, off = Begin(buf)
		buf = End(append(buf, b...), off)
	}
	return buf
}

// readAll reads r's frames until the first error, copying each body.
func readAll(r *Reader) ([][]byte, error) {
	var got [][]byte
	for {
		b, err := r.Next()
		if err != nil {
			return got, err
		}
		got = append(got, append([]byte(nil), b...))
	}
}

func TestHeaderFrameLayout(t *testing.T) {
	got := stream([]byte("abc"))
	want := []byte{3, 0, 0, 0}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum([]byte("abc"), crc32.MakeTable(crc32.Castagnoli)))
	want = append(want, "abc"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame = %x, want %x", got, want)
	}
}

func TestReaderRoundTripAndErrors(t *testing.T) {
	buf := stream([]byte("one"), []byte("two!"), bytes.Repeat([]byte{7}, 300))
	got, err := readAll(&Reader{R: bytes.NewReader(buf), Max: 1 << 10})
	if err != io.EOF || len(got) != 3 || string(got[0]) != "one" || string(got[1]) != "two!" || len(got[2]) != 300 {
		t.Fatalf("read %q, %v", got, err)
	}
	for _, c := range []struct {
		name string
		data []byte
		max  int
		want error
	}{
		{"empty", nil, 16, io.EOF},
		{"short header", buf[:5], 16, io.ErrUnexpectedEOF},
		{"short body", buf[:HeaderLen+1], 16, io.ErrUnexpectedEOF},
		{"header only", buf[:HeaderLen], 16, io.ErrUnexpectedEOF},
		{"zero length", make([]byte, HeaderLen), 16, ErrLength},
		{"over max", buf, 2, ErrLength},
		{"crc", append(append([]byte(nil), buf[:HeaderLen+2]...), 'X'), 16, ErrCRC},
	} {
		if _, err := (&Reader{R: bytes.NewReader(c.data), Max: c.max}).Next(); err != c.want {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Another read error passes through untouched.
	boom := errors.New("boom")
	if _, err := (&Reader{R: io.MultiReader(bytes.NewReader(buf[:3]), errReader{boom}), Max: 16}).Next(); err != boom {
		t.Errorf("read error = %v, want %v", err, boom)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func TestTrailerSeal(t *testing.T) {
	sealed := AppendCRC([]byte("hdr:body"), 4)
	if body, ok := CheckCRC(sealed[4:]); !ok || string(body) != "body" {
		t.Fatalf("CheckCRC = %q, %v", body, ok)
	}
	for i := range sealed[4:] {
		bad := append([]byte(nil), sealed[4:]...)
		bad[i] ^= 1
		if _, ok := CheckCRC(bad); ok {
			t.Fatalf("flip at %d passed", i)
		}
	}
	for n := 0; n < 4; n++ {
		if _, ok := CheckCRC(make([]byte, n)); ok {
			t.Fatalf("%d bytes passed", n)
		}
	}
}

// A hostile length prefix costs what the peer sent, not what it
// declared: 64 MiB claimed, 10 bytes delivered.
func TestReaderHostileLengthAllocatesWhatArrives(t *testing.T) {
	data := binary.LittleEndian.AppendUint32(nil, 64<<20)
	data = append(data, make([]byte, 4+10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := (&Reader{R: bytes.NewReader(data), Max: 1 << 30}).Next()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("allocated %d bytes for a 10-byte partial frame", n)
	}
}

// A body buffer sized once is reused: steady-state reads allocate nothing.
func TestReaderReusesBody(t *testing.T) {
	one := stream(bytes.Repeat([]byte{1}, 100))
	br := bytes.NewReader(one)
	r := Reader{R: br, Max: 1 << 10}
	if allocs := testing.AllocsPerRun(100, func() {
		br.Reset(one)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocs per frame", allocs)
	}
}

// FuzzFrameReader reads arbitrary bytes as a frame stream — it must never
// panic, never return a body its CRC does not vouch for, and never
// consume past a declared length — and then frames the input as a valid
// stream and cuts it at every offset: the frames wholly before the cut
// come back, then io.EOF at a frame boundary and io.ErrUnexpectedEOF
// inside one (a WAL scan's clean end versus its torn tail).
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, HeaderLen))
	f.Add(stream([]byte("a")))
	f.Add(stream([]byte("hello"), []byte("world"), bytes.Repeat([]byte{0xff}, 40)))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 12
		br := bytes.NewReader(data)
		r := Reader{R: br, Max: max}
		pos := 0
		for {
			body, err := r.Next()
			consumed := len(data) - br.Len()
			if err != nil {
				if consumed-pos > HeaderLen && consumed-pos > HeaderLen+int(binary.LittleEndian.Uint32(data[pos:])) {
					t.Fatalf("consumed %d bytes of a frame at %d", consumed-pos, pos)
				}
				break
			}
			if len(body) == 0 || len(body) > max || consumed != pos+HeaderLen+len(body) {
				t.Fatalf("frame at %d: %d-byte body, consumed to %d", pos, len(body), consumed)
			}
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[pos+4:]) {
				t.Fatalf("frame at %d: body does not match its CRC", pos)
			}
			pos = consumed
		}

		if len(data) > 64 {
			data = data[:64] // every cut re-reads the stream: keep it short
		}
		var bodies [][]byte
		for rest := data; len(rest) > 0; {
			n := min(len(rest), 1+int(rest[0])%16)
			bodies, rest = append(bodies, rest[:n]), rest[n:]
		}
		full := stream(bodies...)
		for cut := 0; cut <= len(full); cut++ {
			got, err := readAll(&Reader{R: bytes.NewReader(full[:cut]), Max: max})
			end := 0
			for _, b := range got {
				end += HeaderLen + len(b)
			}
			if len(got) > len(bodies) || end > cut {
				t.Fatalf("cut %d: %d frames ending at %d", cut, len(got), end)
			}
			for i, b := range got {
				if !bytes.Equal(b, bodies[i]) {
					t.Fatalf("cut %d: frame %d = %x, want %x", cut, i, b, bodies[i])
				}
			}
			switch {
			case end == cut && err != io.EOF:
				t.Fatalf("cut %d at a frame boundary: %v", cut, err)
			case end < cut && (err != io.ErrUnexpectedEOF || end+HeaderLen+len(bodies[len(got)]) <= cut):
				t.Fatalf("cut %d inside frame %d: %v", cut, len(got), err)
			}
		}
	})
}
