package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/frontend"
	"ffwd/internal/obs"
	"ffwd/internal/wireproto"
)

// This file is the text-protocol frontend: goroutine-per-connection,
// newline-framed commands, one reply line per command. It shares the
// backend, admission, and drain semantics with the binary frontend
// (binaryfront.go); only the wire format and concurrency shape differ.

// maxLine bounds one command line (bytes, newline included). Longer
// lines are drained and answered with an ERROR instead of truncated or
// silently dropped.
const maxLine = 4096

// errLineTooLong reports a command line over maxLine; the offending line
// has been consumed, so the connection can keep serving.
var errLineTooLong = errors.New("line too long")

// serveStats aggregates connection-level counters across the frontend;
// all fields are atomics so serving goroutines update them lock-free.
type serveStats struct {
	accepted     atomic.Uint64 // connections accepted off the listener
	rejected     atomic.Uint64 // closed at admission: over -max-conns
	active       atomic.Int64  // currently serving
	readTimeouts atomic.Uint64 // connections dropped by the idle deadline
	longLines    atomic.Uint64 // over-maxLine command lines rejected
}

// statRows declares the text frontend's counters, once, for every stats
// sink (see obs.Registry).
func (fe *textFrontend) statRows() []obs.Row {
	s := &fe.stats
	return []obs.Row{
		{Name: "ffwdserve_connections_accepted_total", Key: "accepted", Help: "Connections accepted off the listener.", Value: float64(s.accepted.Load())},
		{Name: "ffwdserve_connections_rejected_total", Key: "rejected", Help: "Connections rejected at admission (over -max-conns).", Value: float64(s.rejected.Load())},
		{Name: "ffwdserve_connections_active", Key: "active", Help: "Connections currently being served.", Value: float64(s.active.Load())},
		{Name: "ffwdserve_read_timeouts_total", Key: "read_timeouts", Help: "Connections dropped by the idle read deadline.", Value: float64(s.readTimeouts.Load())},
		{Name: "ffwdserve_long_lines_total", Key: "long_lines", Help: "Over-limit command lines rejected.", Value: float64(s.longLines.Load())},
		{Name: "ffwdserve_busy_sheds_total", Key: "busy_sheds", Help: "Text command batches shed BUSY waiting for a pooled executor.", Value: float64(fe.pool.sheds.Load())},
	}
}

// textFrontend is the connection-facing half of the text protocol: it
// owns admission control, per-connection deadlines, the bounded-line
// protocol loop, and the in-flight connection set the graceful drain
// closes. Commands execute on executors borrowed from pool, one batch of
// already-buffered lines at a time.
type textFrontend struct {
	pool         *execPool
	maxBatch     int           // most commands handed to one ExecBatch (0 = 64)
	maxConns     int           // admission cap (0 = unlimited)
	readTimeout  time.Duration // per-command idle bound (0 = none)
	writeTimeout time.Duration // per-flush bound (0 = none)
	// statsReply, when set, answers the stats verb in place of the
	// executor: the replicated backend reports its group, which the typed
	// stats result has no fields for.
	statsReply func() string
	stats      serveStats

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newTextFrontend(pool *execPool) *textFrontend {
	return &textFrontend{pool: pool, maxBatch: 64, conns: make(map[net.Conn]struct{})}
}

// acceptLoop accepts until the listener closes, applying the -max-conns
// admission check before a connection gets a serving goroutine.
func (fe *textFrontend) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fe.stats.accepted.Add(1)
		if fe.maxConns > 0 && fe.stats.active.Load() >= int64(fe.maxConns) {
			fe.stats.rejected.Add(1)
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			fmt.Fprintf(conn, "BUSY max connections\n")
			conn.Close()
			continue
		}
		fe.stats.active.Add(1)
		fe.mu.Lock()
		fe.conns[conn] = struct{}{}
		fe.mu.Unlock()
		fe.wg.Add(1)
		go func() {
			defer fe.wg.Done()
			defer fe.stats.active.Add(-1)
			fe.serve(conn)
			fe.mu.Lock()
			delete(fe.conns, conn)
			fe.mu.Unlock()
		}()
	}
}

// drain waits up to timeout for in-flight connections to finish, then
// force-closes the stragglers; it returns how many it had to force.
func (fe *textFrontend) drain(timeout time.Duration) int {
	done := make(chan struct{})
	go func() { fe.wg.Wait(); close(done) }()
	select {
	case <-done:
		return 0
	case <-time.After(timeout):
	}
	fe.mu.Lock()
	n := len(fe.conns)
	for c := range fe.conns {
		c.Close()
	}
	fe.mu.Unlock()
	<-done
	return n
}

// textBatch is one connection's batch in flight: the commands drained
// from the read buffer, in order, and the executor's answers. All of it
// is reused from batch to batch.
type textBatch struct {
	cmds    []textCmd
	replies []string // cmdReply lines, in order
	ops     []frontend.Op
	results []frontend.Result
	args    []uint64 // parse scratch
	keys    []uint64 // mget keys of the batch, flat
	vals    []uint64 // mget values of the batch, flat
	out     []byte
}

func (b *textBatch) reset() {
	b.cmds, b.replies, b.ops, b.results = b.cmds[:0], b.replies[:0], b.ops[:0], b.results[:0]
	b.keys, b.vals = b.keys[:0], b.vals[:0]
}

// reply queues a command already answered without an executor.
func (b *textBatch) reply(line string) {
	b.cmds, b.replies = append(b.cmds, cmdReply), append(b.replies, line)
}

// add parses one command line into the batch and reports whether it was
// quit.
func (b *textBatch) add(line []byte) bool {
	var op frontend.Op
	cmd, reply, args := parse(line, &op, b.args)
	b.args = args
	switch cmd {
	case cmdNone:
		return false
	case cmdQuit:
		return true
	case cmdReply:
		b.reply(reply)
		return false
	}
	res := frontend.Result{}
	if op.Kind == wireproto.OpMGet {
		// parse's keys live in its scratch; the batch keeps its own.
		// (Regrowth strands earlier ops' slices on the old array, which
		// stays valid for as long as they point at it.)
		n := len(b.keys)
		b.keys = append(b.keys, op.Keys...)
		b.vals = append(b.vals, op.Keys...)
		op.Keys, res.Vals = b.keys[n:], b.vals[n:]
	}
	b.cmds, b.ops, b.results = append(b.cmds, cmd), append(b.ops, op), append(b.results, res)
	return false
}

// run executes the batch's ops as one ExecBatch on a borrowed executor
// and renders every command's reply, in order, into b.out.
func (fe *textFrontend) run(b *textBatch) {
	shed := false
	if len(b.ops) > 0 {
		if ex := fe.pool.get(); ex != nil {
			ex.ExecBatch(b.ops, b.results)
			fe.pool.put(ex)
		} else {
			shed = true
		}
	}
	b.out = b.out[:0]
	nop, nrep := 0, 0
	for _, cmd := range b.cmds {
		switch {
		case cmd == cmdReply:
			b.out = append(b.out, b.replies[nrep]...)
			nrep++
		case shed:
			b.out = append(b.out, busyPool...)
		case cmd == cmdStats && fe.statsReply != nil:
			b.out = append(b.out, fe.statsReply()...)
		default:
			b.out = appendReply(b.out, &b.results[nop])
		}
		if cmd != cmdReply {
			nop++
		}
		b.out = append(b.out, '\n')
	}
}

// serve runs the protocol loop for one connection: block for a command
// under the idle deadline, drain every complete command already buffered
// behind it (up to maxBatch), run them as one executor batch, and write
// the replies under the write deadline — flushing unless yet another
// complete command is already waiting, in which case its batch's replies
// ride along. The skip is safe against trickling clients because it only
// happens when a full newline-terminated command is buffered, which
// guarantees another batch (and flush check) follows.
func (fe *textFrontend) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, maxLine)
	w := bufio.NewWriter(conn)
	var b textBatch
	for quit := false; !quit; {
		if fe.readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(fe.readTimeout))
		}
		b.reset()
		for more := true; more && !quit && len(b.cmds) < fe.maxBatch; more = cmdBuffered(r) {
			line, err := readLine(r)
			switch {
			case err == nil:
				quit = b.add(line)
			case errors.Is(err, errLineTooLong):
				fe.stats.longLines.Add(1)
				b.reply("ERROR line too long")
			default:
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					// A quit-less idle client: tell it why (best effort)
					// and drop the connection rather than leak it.
					fe.stats.readTimeouts.Add(1)
					b.reply("ERROR idle timeout")
				}
				quit = true
			}
		}
		fe.run(&b)
		if fe.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(fe.writeTimeout))
		}
		if _, err := w.Write(b.out); err != nil {
			return
		}
		if (quit || !cmdBuffered(r)) && w.Flush() != nil {
			return
		}
	}
}

// readLine reads one newline-terminated line of at most maxLine bytes
// (the reader's buffer size), valid until the next read. An overlong
// line is consumed through its newline and reported as errLineTooLong,
// so the protocol loop can answer with an ERROR and keep the connection
// — where a Scanner would kill it silently.
func readLine(r *bufio.Reader) ([]byte, error) {
	s, err := r.ReadSlice('\n')
	switch {
	case err == nil || (len(s) > 0 && errors.Is(err, io.EOF)):
		// (A final line without a newline is still a command.)
		return s, nil
	case errors.Is(err, bufio.ErrBufferFull):
		for errors.Is(err, bufio.ErrBufferFull) {
			_, err = r.ReadSlice('\n')
		}
		if err == nil {
			return nil, errLineTooLong
		}
	}
	return nil, err
}

// cmdBuffered reports whether r already holds a complete command line.
func cmdBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n == 0 {
		return false
	}
	peek, _ := r.Peek(n)
	return bytes.IndexByte(peek, '\n') >= 0
}
