package main

import (
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ffwd/internal/frontend"
	"ffwd/internal/wireproto"
)

// binParityClient speaks the binary protocol one request at a time and
// renders each response in the text protocol's reply format, so the
// parity test can compare the two protocols verbatim.
type binParityClient struct {
	t    *testing.T
	c    net.Conn
	rbuf []byte
	rlen int
	id   uint64
}

func dialBinary(t *testing.T, addr string) *binParityClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &binParityClient{t: t, c: c, rbuf: make([]byte, 4096)}
}

func (b *binParityClient) roundTrip(req *wireproto.Request) wireproto.Response {
	b.t.Helper()
	b.id++
	req.ID = b.id
	if _, err := b.c.Write(wireproto.AppendRequest(nil, req)); err != nil {
		b.t.Fatal(err)
	}
	resp := b.recv()
	if resp.ID != req.ID {
		b.t.Fatalf("response ID = %d, want %d", resp.ID, req.ID)
	}
	return resp
}

// recv reads the next response frame.
func (b *binParityClient) recv() wireproto.Response {
	b.t.Helper()
	b.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		body, n, err := wireproto.Split(b.rbuf[:b.rlen])
		if err == nil {
			var resp wireproto.Response
			if derr := wireproto.DecodeResponse(body, &resp); derr != nil {
				b.t.Fatalf("decode response: %v", derr)
			}
			vals := append([]uint64(nil), resp.Vals...)
			resp.Vals = vals
			b.rlen = copy(b.rbuf, b.rbuf[n:b.rlen])
			return resp
		}
		if !errors.Is(err, wireproto.ErrShort) {
			b.t.Fatalf("split: %v", err)
		}
		m, rerr := b.c.Read(b.rbuf[b.rlen:])
		if rerr != nil {
			b.t.Fatalf("read: %v", rerr)
		}
		b.rlen += m
	}
}

// request maps one text-protocol command to the binary request that
// carries the same op: whatever the line codec decodes it to.
func (b *binParityClient) request(line string) wireproto.Request {
	b.t.Helper()
	r, v := decode(line)
	if v != frontend.Run {
		b.t.Fatalf("no binary equivalent for %q", line)
	}
	return wireproto.Request{Op: r.Op, Key: r.Key, Val: r.Val, TTL: r.TTL, Keys: slices.Clone(r.Keys)}
}

// render formats a binary response through the line codec.
func render(resp *wireproto.Response) string {
	return strings.TrimSuffix(string(frontend.Text{}.Append(nil, 0, 0, &frontend.Result{
		Status: resp.Type, Val: resp.Val, Code: resp.Code, Vals: resp.Vals,
		Hits: resp.Hits, Misses: resp.Misses, Evictions: resp.Evictions, Expired: resp.Expired,
	})), "\n")
}

// handle runs one text-protocol command through the binary frontend and
// renders the reply in the text reply format. Parity then says exactly
// that both protocols hand the executor the same Op and get the same
// Result back.
func (b *binParityClient) handle(line string) string {
	b.t.Helper()
	req := b.request(line)
	resp := b.roundTrip(&req)
	return render(&resp)
}

// burst sends the commands as one write of pipelined frames and returns
// the rendered replies in command order (responses carry their request's
// ID and may arrive in any order).
func (b *binParityClient) burst(lines []string) []string {
	b.t.Helper()
	var frames []byte
	first := b.id + 1
	for _, line := range lines {
		req := b.request(line)
		b.id++
		req.ID = b.id
		frames = wireproto.AppendRequest(frames, &req)
	}
	if _, err := b.c.Write(frames); err != nil {
		b.t.Fatal(err)
	}
	replies := make([]string, len(lines))
	for range lines {
		resp := b.recv()
		if resp.ID < first || resp.ID > b.id {
			b.t.Fatalf("response ID = %d, want one of %d..%d", resp.ID, first, b.id)
		}
		replies[resp.ID-first] = render(&resp)
	}
	return replies
}

// TestFrontendParity runs one op sequence through both protocols over
// TCP — one frontend.Server per codec, each over its own identically
// configured store, for every backend — and requires every reply to
// match verbatim once the binary responses are rendered in text form.
// The stats step pins that both protocols report identical stats fields.
func TestFrontendParity(t *testing.T) {
	const (
		capacity = 1024
		execs    = 2
	)
	// A full-width multi-get, most of it misses, through each protocol's
	// one-handle executor, which fences it inside its window.
	wideMget := "mget"
	for k := 1; k <= wireproto.MGetMax; k++ {
		wideMget += " " + strconv.Itoa(k)
	}
	steps := []string{
		"get 1",
		"set 1 42",
		"get 1",
		"set 1 43",
		"get 1",
		"len",
		"del 1",
		"del 1",
		"get 1",
		"set 2 18446744073709551615",
		"setx 2 18446744073709551615 5",
		"setx 20 200 1000000",
		"get 20",
		"touch 20 2000000",
		"touch 21 5",
		"set 10 100",
		"set 12 120",
		"mget 10 11 12",
		wideMget,
		"get 10",
		"get 11",
		"len",
		"stats",
	}
	for _, tc := range []struct {
		name string
		// build returns a text server configuration and a binary executor
		// pool, each over a fresh store.
		build func(t *testing.T) (frontend.Config, []frontend.Exec)
		// skip names a step the two protocols answer differently by design.
		skip string
	}{
		{name: "ffwd", build: func(t *testing.T) (frontend.Config, []frontend.Exec) {
			return ffwdText(t, capacity, 4), ffwdExecs(t, capacity, execs)
		}},
		{name: "mutex", build: func(t *testing.T) (frontend.Config, []frontend.Exec) {
			return mutexText(capacity, nil), mutexText(capacity, nil).Execs
		}},
		// The replicated text stats verb reports the group; the binary
		// stats response has no fields for one and is refused.
		{name: "replicated", skip: "stats", build: func(t *testing.T) (frontend.Config, []frontend.Exec) {
			return newRepBackend(t, capacity, 4, nil).cfg, newRepBackend(t, capacity, execs, nil).cfg.Execs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, execs := tc.build(t)
			_, addr := listen(t, cfg)
			_, _, textHandle := dialText(t, addr)
			_, baddr := listen(t, frontend.Config{Execs: execs})
			bc := dialBinary(t, baddr)

			for _, cmd := range steps {
				if cmd == tc.skip {
					continue
				}
				want := textHandle(cmd)
				got := bc.handle(cmd)
				if got != want {
					t.Fatalf("parity break on %q: text=%q binary=%q", cmd, want, got)
				}
			}
		})
	}
}
