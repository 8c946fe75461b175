package frontend

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ffwd/internal/wireproto"
)

// discardConn is a net.Conn stub that counts written bytes; it lets the
// alloc test drive decode → execute → encode → flush without sockets.
type discardConn struct {
	bytes atomic.Uint64
}

func (d *discardConn) Write(p []byte) (int, error) {
	d.bytes.Add(uint64(len(p)))
	return len(p), nil
}
func (d *discardConn) Read([]byte) (int, error)         { select {} }
func (d *discardConn) Close() error                     { return nil }
func (d *discardConn) LocalAddr() net.Addr              { return nil }
func (d *discardConn) RemoteAddr() net.Addr             { return nil }
func (d *discardConn) SetDeadline(time.Time) error      { return nil }
func (d *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (d *discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestHotPathAllocFree pins the acceptance criterion for the binary
// serving path: decoding a burst of frames, executing it on a borrowed
// executor, encoding the responses, and flushing them allocates nothing
// in steady state.
func TestHotPathAllocFree(t *testing.T) {
	e := newMapExec()
	const burst = 16
	for k := uint64(0); k < burst; k++ {
		e.m[k] = k + 1
	}
	s, err := NewServer(Config{Execs: []Exec{e}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := &discardConn{}
	c := s.newConn(d)

	var frames []byte
	for i := uint64(0); i < burst; i++ {
		frames = wireproto.AppendRequest(frames, &wireproto.Request{Op: wireproto.OpGet, ID: i + 1, Key: i})
	}
	// A GET hit answers with a 22-byte RespValue frame.
	const respBytes = burst * 22

	var want uint64
	iter := func() {
		copy(c.rbuf, frames)
		c.rlen = len(frames)
		if !s.decodeConn(c) {
			panic("decodeConn rejected valid frames")
		}
		if want += respBytes; d.bytes.Load() != want {
			panic("a batch returned before its replies were flushed")
		}
	}
	iter() // settle pools and buffer capacities before measuring
	if n := testing.AllocsPerRun(100, iter); n != 0 {
		t.Fatalf("hot path allocates %.1f allocs per %d-frame burst, want 0", n, burst)
	}
}

// TestMGetHotPathAllocFree extends the zero-alloc pin to the mget path,
// which moves key lists through the connection's batch.
func TestMGetHotPathAllocFree(t *testing.T) {
	e := newMapExec()
	for k := uint64(0); k < 8; k++ {
		e.m[k] = k + 1
	}
	s, err := NewServer(Config{Execs: []Exec{e}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := &discardConn{}
	c := s.newConn(d)

	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	frames := wireproto.AppendRequest(nil, &wireproto.Request{Op: wireproto.OpMGet, ID: 1, Keys: keys})
	// RespValues with 8 values: 4 + 10 + 2 + 64 = 80 bytes.
	const respBytes = 80

	var want uint64
	iter := func() {
		copy(c.rbuf, frames)
		c.rlen = len(frames)
		if !s.decodeConn(c) {
			panic("decodeConn rejected valid frames")
		}
		if want += respBytes; d.bytes.Load() != want {
			panic("a batch returned before its replies were flushed")
		}
	}
	iter()
	if n := testing.AllocsPerRun(100, iter); n != 0 {
		t.Fatalf("mget path allocates %.1f allocs/op, want 0", n)
	}
}

// TestTextHotPathAllocFree is the same pin for the line codec: a 64-line
// get/set burst through decode, the connection's batch on a borrowed
// executor, the line formatter and the flush allocates nothing.
func TestTextHotPathAllocFree(t *testing.T) {
	e := newMapExec()
	s, err := NewServer(Config{Codec: Text{}, Execs: []Exec{e}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := &discardConn{}
	c := s.newConn(d)

	var lines, replies []byte
	for i := uint64(0); i < 32; i++ {
		lines = fmt.Appendf(lines, "set %d %d\nget %d\n", i, i+1000, i)
		replies = fmt.Appendf(replies, "STORED\nVALUE %d\n", i+1000)
	}
	var want uint64
	iter := func() {
		c.rlen = copy(c.rbuf, lines)
		if !s.decodeConn(c) || c.rlen != 0 {
			panic("decodeConn left part of a burst of complete lines")
		}
		if want += uint64(len(replies)); d.bytes.Load() != want {
			panic("an ordered batch returned before its replies were flushed")
		}
	}
	iter()
	if n := testing.AllocsPerRun(100, iter); n != 0 {
		t.Fatalf("text hot path allocates %.1f allocs per 64-line burst, want 0", n)
	}
}
