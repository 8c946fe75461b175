package wireproto

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The client-visible CRC layout is pinned byte for byte against frames
// an earlier build encoded (testdata/compat): a FlagCRC OpGet request
// and the RespValue that answers it.
func TestCompatGoldenCRCFrames(t *testing.T) {
	const id = 0x0102030405060708
	for _, c := range []struct {
		name string
		enc  []byte
	}{
		{"get_crc.bin", AppendRequest(nil, &Request{Op: OpGet, Flags: FlagCRC, ID: id, Key: 42})},
		{"value_crc.bin", AppendResponse(nil, &Response{Type: RespValue, Flags: FlagCRC, ID: id, Val: 4242})},
	} {
		if want := compatFile(t, c.name); !bytes.Equal(c.enc, want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", c.name, c.enc, want)
		}
	}
	body, _, err := Split(compatFile(t, "get_crc.bin"))
	var req Request
	if err != nil || DecodeRequest(body, &req) != nil || req.Op != OpGet || req.Flags != FlagCRC || req.ID != id || req.Key != 42 {
		t.Fatalf("golden request decodes as %+v (%v)", req, err)
	}
	body, _, err = Split(compatFile(t, "value_crc.bin"))
	var resp Response
	if err != nil || DecodeResponse(body, &resp) != nil || resp.Type != RespValue || resp.ID != id || resp.Val != 4242 {
		t.Fatalf("golden response decodes as %+v (%v)", resp, err)
	}
}

func compatFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
