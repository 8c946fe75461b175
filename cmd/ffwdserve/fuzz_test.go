package main

import (
	"strings"
	"testing"

	"ffwd/internal/frontend"
)

// FuzzDispatch throws arbitrary command lines at the text protocol's
// parse → ExecBatch → format path: it must never panic and must answer
// every line with exactly one well-formed response (none for a blank
// line or a bare quit, which have no reply).
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
	fe := mutexText(1024, nil)
	f.Fuzz(func(t *testing.T, line string) {
		out := handle(fe, line)
		if out == "" {
			var op frontend.Op
			if cmd, _, _ := parse([]byte(line), &op, nil); cmd != cmdNone && cmd != cmdQuit {
				t.Fatalf("empty response for %q", line)
			}
			return
		}
		if strings.ContainsRune(out, '\n') {
			t.Fatalf("multi-line response for %q: %q", line, out)
		}
		switch {
		case strings.HasPrefix(out, "VALUE "), strings.HasPrefix(out, "VALUES"),
			out == "NOT_FOUND", out == "STORED", out == "DELETED",
			strings.HasPrefix(out, "LEN "), strings.HasPrefix(out, "STATS "),
			strings.HasPrefix(out, "ERROR "):
		default:
			t.Fatalf("malformed response for %q: %q", line, out)
		}
	})
}
