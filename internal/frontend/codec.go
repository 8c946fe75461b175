package frontend

import "ffwd/internal/wireproto"

// Codec is a wire format: it takes requests off a connection's read
// buffer and puts results on its write buffer. Everything around those
// two calls — accept, admission, deadlines, batching, flush, drain,
// metrics — is the Server's and runs the same for every Codec.
type Codec interface {
	// Decode decodes one request off the front of buf into r and reports
	// the bytes it consumed and what the request needs. It must not retain
	// buf, and must consume at least one byte unless it answers More.
	Decode(buf []byte, r *Request) (n int, v Verdict)

	// Append encodes res onto dst as the answer to the request that
	// carried id and flags.
	Append(dst []byte, id uint64, flags uint8, res *Result) []byte

	// Traits is the rest of the protocol, read once by NewServer.
	Traits() Traits
}

// Traits is what a Server must know of a protocol besides its encoding.
type Traits struct {
	// MaxRequest bounds one encoded request: a read buffer grows to it
	// and no further, so Decode must not answer More to that many bytes.
	MaxRequest int

	// Reject is sent to a connection refused at admission, Idle to one
	// reaped by IdleTimeout; nil closes without a word.
	Reject, Idle []byte

	// StatName and StatKey prefix the names and short keys of StatRows.
	StatName, StatKey string
}

// Verdict is what Decode made of the front of the buffer.
type Verdict uint8

const (
	More  Verdict = iota // no complete request yet; nothing consumed
	Run                  // r.Request is for an executor
	Reply                // the codec answered it: r.Reply (empty: nothing to say)
	Close                // Reply, then close once every earlier reply is flushed

	// Malformed, or'ed into Reply or Close, counts the request in
	// Metrics.DecodeErrors.
	Malformed Verdict = 1 << 7
)

// Request is a connection's decode state: the request the last Decode
// produced, and the scratch a codec keeps from call to call.
type Request struct {
	// Request is the op and its operands (Run). The server hands ID and
	// Flags back to Append and does not read them otherwise. Keys aliases
	// the scratch below until the next Decode.
	wireproto.Request

	// Reply is what the codec answers with (Reply, Close); its backing is
	// reused.
	Reply []byte

	// EOF is set for the one Decode after the peer closed its sending
	// side: buf is all there will ever be.
	EOF bool

	skip bool // Text: inside an over-long line, discarding through its newline
	keys [wireproto.MGetMax]uint64
}

// Binary is the wireproto frame codec: requests carry IDs, which their
// replies echo. It is the default Config.Codec.
type Binary struct{}

// busyFrame is the RespBusy (id 0) an admission-rejected connection gets.
var busyFrame = wireproto.AppendResponse(nil, &wireproto.Response{Type: wireproto.RespBusy})

func (Binary) Traits() Traits {
	return Traits{MaxRequest: wireproto.MaxFrame + 4, Reject: busyFrame, StatName: "ffwd_frontend_", StatKey: "bin_"}
}

// Decode splits one frame off buf. An undecodable one is answered with a
// typed error and closes the connection: framing is lost.
func (Binary) Decode(buf []byte, r *Request) (int, Verdict) {
	body, n, err := wireproto.Split(buf)
	if err == wireproto.ErrShort {
		return 0, More
	}
	if err == nil {
		r.Keys = r.keys[:0]
		err = wireproto.DecodeRequest(body, &r.Request)
	}
	if err != nil {
		code := wireproto.CodeMalformed
		if err == wireproto.ErrBadOp {
			code = wireproto.CodeBadOp
		}
		r.Reply = wireproto.AppendResponse(r.Reply[:0], &wireproto.Response{Type: wireproto.RespError, Code: code})
		return n, Close | Malformed
	}
	return n, Run
}

func (Binary) Append(dst []byte, id uint64, flags uint8, res *Result) []byte {
	st, code := res.Status, res.Code
	if st == 0 {
		st, code = wireproto.RespError, wireproto.CodeInternal
	}
	return wireproto.AppendResponse(dst, &wireproto.Response{
		Type:      st,
		Flags:     flags & wireproto.FlagCRC,
		ID:        id,
		Val:       res.Val,
		Code:      code,
		Hits:      res.Hits,
		Misses:    res.Misses,
		Evictions: res.Evictions,
		Expired:   res.Expired,
		Vals:      res.Vals,
	})
}
