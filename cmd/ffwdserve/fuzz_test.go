package main

import (
	"bytes"
	"strings"
	"testing"

	"ffwd/internal/frontend"
)

// FuzzDispatch throws arbitrary bytes at the line codec's decode and, for
// what decodes to a request, the ExecBatch → format path behind it.
// Decode must never panic, never consume nothing from a buffer holding a
// newline, never consume more than it was given, and answer every line
// with at most one well-formed reply line.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"get 1", "set 1 2", "del 1", "len", "", " ", "get", "set 1",
		"set 1 2 3", "get -1", "set 1 18446744073709551615",
		"GET 007", "sEt 5 5", "del\t9", "quit extra", "get 99999999999999999999",
		"\x00", "set \x01 2", strings.Repeat("a ", 100),
		"mget 1 2 3", "mget", "MGET 4", strings.Repeat("mget 1", 1) + strings.Repeat(" 2", 100),
	} {
		f.Add(seed)
	}
	ex := mutexText(1024, nil).Execs[0]
	f.Fuzz(func(t *testing.T, in string) {
		var r frontend.Request
		for buf := []byte(in + "\n"); len(buf) > 0; {
			n, v := frontend.Text{}.Decode(buf, &r)
			if n <= 0 || n > len(buf) {
				t.Fatalf("decode consumed %d of %d bytes of %q", n, len(buf), buf)
			}
			buf = buf[n:]
			out := r.Reply
			if v == frontend.Run {
				ops := []frontend.Op{{Kind: r.Op, Key: r.Key, Val: r.Val, TTL: r.TTL, Keys: r.Keys}}
				results := []frontend.Result{{Vals: make([]uint64, len(r.Keys))}}
				ex.ExecBatch(ops, results)
				out = frontend.Text{}.Append(nil, 0, 0, &results[0])
			}
			if len(out) == 0 {
				continue // a blank line, a quit, the tail of an over-long line
			}
			line, ok := bytes.CutSuffix(out, []byte("\n"))
			if !ok || bytes.IndexByte(line, '\n') >= 0 {
				t.Fatalf("reply to %q is not one line: %q", in, out)
			}
			switch s := string(line); {
			case strings.HasPrefix(s, "VALUE "), strings.HasPrefix(s, "VALUES"),
				s == "NOT_FOUND", s == "STORED", s == "DELETED", s == "TOUCHED",
				strings.HasPrefix(s, "LEN "), strings.HasPrefix(s, "STATS "),
				strings.HasPrefix(s, "ERROR "):
			default:
				t.Fatalf("malformed reply to %q: %q", in, s)
			}
		}
	})
}
