package frontend

import (
	"bytes"
	"fmt"
	"strconv"

	"ffwd/internal/wireproto"
)

// Text is the line codec: one command per line in, one reply line per
// command out, matched by position. A command line parses to the same
// typed request a binary frame decodes to (or to an immediate reply when
// it is malformed), and one Result formats to one reply line, so both
// protocols answer from the same executor results; ffwdserve's parity
// test pins that the renderings agree.
type Text struct {
	// Stats, when set, answers the stats verb in place of an executor:
	// the replicated backend reports its group, which the typed stats
	// result has no fields for.
	Stats func() string
}

// MaxLine bounds one command line (bytes, newline included). A longer
// line is discarded through its newline and answered with one ERROR, not
// truncated or silently dropped, and never grows the read buffer.
const MaxLine = 4096

// UsageMsg answers an unknown or mis-counted command.
const UsageMsg = "ERROR usage: get k | mget k... | set k v | setx k v ttl | touch k ttl | del k | len | stats | quit"

const (
	busyPool  = "BUSY delegation pool saturated"
	busyShard = "BUSY replicated shard unavailable"
)

var mgetLimitMsg = fmt.Sprintf("ERROR mget limited to %d keys", wireproto.MGetMax)

func (Text) Traits() Traits {
	return Traits{MaxRequest: MaxLine, Reject: []byte("BUSY max connections\n"),
		Idle: []byte("ERROR idle timeout\n"), StatName: "ffwd_text_", StatKey: "text_"}
}

// Decode takes one line off buf. A final line without a newline is still
// a command once the peer has closed.
func (t Text) Decode(buf []byte, r *Request) (int, Verdict) {
	r.Reply = r.Reply[:0]
	n := bytes.IndexByte(buf, '\n') + 1
	if n == 0 {
		if len(buf) == 0 || (len(buf) < MaxLine && !r.skip && !r.EOF) {
			return 0, More
		}
		n = len(buf) // an unterminated last line, or a stretch of an over-long one
	}
	ended := buf[n-1] == '\n' || (r.EOF && n <= MaxLine)
	switch {
	case r.skip:
		r.skip = !ended
		return n, Reply
	case n > MaxLine || !ended:
		r.skip = !ended
		r.Reply = append(r.Reply, "ERROR line too long\n"...)
		return n, Reply | Malformed
	}
	v := t.parse(buf[:n], r)
	if v != Run && len(r.Reply) > 0 {
		r.Reply = append(r.Reply, '\n')
	}
	return n, v
}

// isWord reports whether tok spells the lower-case ASCII word w in any
// case.
func isWord(tok []byte, w string) bool {
	if len(tok) != len(w) {
		return false
	}
	for i := range tok {
		if tok[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || (c >= '\t' && c <= '\r') }

// parse splits a command line into its verb and numeric arguments and
// maps it to a request, or to the reply line (no newline) it already
// deserves. An mget's Keys alias r's scratch.
func (t Text) parse(line []byte, r *Request) Verdict {
	var verb []byte
	args, n := &r.keys, 0
	for i := 0; i < len(line); {
		if isSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if verb == nil {
			verb = line[i:j]
		} else {
			v, err := strconv.ParseUint(string(line[i:j]), 10, 64)
			if err != nil {
				r.Reply = strconv.AppendQuote(append(r.Reply, "ERROR bad number "...), string(line[i:j]))
				return Reply
			}
			if n < len(args) {
				args[n] = v
			}
			n++
		}
		i = j
	}
	if verb == nil {
		return Reply // a blank line: no command, no reply
	}
	r.Request = wireproto.Request{}
	switch {
	case isWord(verb, "get") && n == 1:
		r.Op, r.Key = wireproto.OpGet, args[0]
	case isWord(verb, "mget") && n >= 1:
		if n > wireproto.MGetMax {
			r.Reply = append(r.Reply, mgetLimitMsg...)
			return Reply
		}
		r.Op, r.Keys = wireproto.OpMGet, args[:n]
	case isWord(verb, "set") && n == 2:
		r.Op, r.Key, r.Val = wireproto.OpSet, args[0], args[1]
	case isWord(verb, "setx") && n == 3:
		r.Op, r.Key, r.Val, r.TTL = wireproto.OpSetTTL, args[0], args[1], args[2]
	case isWord(verb, "touch") && n == 2:
		r.Op, r.Key, r.TTL = wireproto.OpTouch, args[0], args[1]
	case isWord(verb, "del") && n == 1:
		r.Op, r.Key = wireproto.OpDel, args[0]
	case isWord(verb, "len") && n == 0:
		r.Op = wireproto.OpLen
	case isWord(verb, "stats") && n == 0:
		if t.Stats != nil {
			r.Reply = append(r.Reply, t.Stats()...)
			return Reply
		}
		r.Op = wireproto.OpStats
	case isWord(verb, "quit") && n == 0:
		return Close
	default:
		r.Reply = append(r.Reply, UsageMsg...)
		return Reply
	}
	return Run
}

// Append renders one result as a reply line.
func (Text) Append(out []byte, _ uint64, _ uint8, res *Result) []byte {
	return append(appendReply(out, res), '\n')
}

func appendReply(out []byte, res *Result) []byte {
	switch res.Status {
	case wireproto.RespValue:
		return strconv.AppendUint(append(out, "VALUE "...), res.Val, 10)
	case wireproto.RespNotFound:
		return append(out, "NOT_FOUND"...)
	case wireproto.RespStored:
		return append(out, "STORED"...)
	case wireproto.RespDeleted:
		return append(out, "DELETED"...)
	case wireproto.RespTouched:
		return append(out, "TOUCHED"...)
	case wireproto.RespValues:
		out = append(out, "VALUES"...)
		for _, v := range res.Vals {
			if v == wireproto.MissValue {
				out = append(out, " -"...)
			} else {
				out = strconv.AppendUint(append(out, ' '), v, 10)
			}
		}
		return out
	case wireproto.RespLen:
		return strconv.AppendUint(append(out, "LEN "...), res.Val, 10)
	case wireproto.RespStats:
		return fmt.Appendf(out, "STATS hits=%d misses=%d evictions=%d expired=%d", res.Hits, res.Misses, res.Evictions, res.Expired)
	case wireproto.RespBusy:
		if res.Code == codeShed {
			return append(out, busyPool...)
		}
		return append(out, busyShard...)
	case wireproto.RespError:
		switch res.Code {
		case wireproto.CodeValueReserved:
			return append(out, "ERROR value reserved"...)
		case wireproto.CodeBadOp:
			// A command this backend does not serve is an unknown command.
			return append(out, UsageMsg...)
		}
	}
	return append(out, "ERROR internal"...)
}
