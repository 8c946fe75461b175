package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"ffwd/internal/wireproto"
)

// This file is the closed-loop connection driver for the served
// workloads. One goroutine owns one connection: it fills the window,
// writes the batch with one syscall, blocks in one read, and checks
// every reply that arrived. A single goroutine per connection (rather
// than a sender/reader pair) keeps the generator's runnable goroutines
// at or below the connection count, which on a two-core host is what
// leaves the second core to the server.

// codec frames requests and parses replies for one wire protocol.
type codec interface {
	appendReq(buf []byte, id uint64, o *op) []byte
	// parse consumes one reply from buf. n == 0 means buf holds no
	// complete reply yet. ordered codecs (text) ignore id: replies come
	// back in request order.
	parse(buf []byte) (n int, id uint64, r reply, err error)
	ordered() bool
}

type binaryCodec struct {
	req  wireproto.Request
	resp wireproto.Response
}

func (c *binaryCodec) ordered() bool { return false }

func (c *binaryCodec) appendReq(buf []byte, id uint64, o *op) []byte {
	c.req = wireproto.Request{ID: id, Key: o.key}
	switch o.kind {
	case opGet:
		c.req.Op = wireproto.OpGet
	case opSet:
		c.req.Op, c.req.Val = wireproto.OpSet, o.val
	case opSetTTL:
		c.req.Op, c.req.Val, c.req.TTL = wireproto.OpSetTTL, o.val, o.ttl
	case opTouch:
		c.req.Op, c.req.TTL = wireproto.OpTouch, o.ttl
	}
	return wireproto.AppendRequest(buf, &c.req)
}

func (c *binaryCodec) parse(buf []byte) (int, uint64, reply, error) {
	body, n, err := wireproto.Split(buf)
	if errors.Is(err, wireproto.ErrShort) {
		return 0, 0, reply{}, nil
	}
	if err != nil {
		return 0, 0, reply{}, err
	}
	if err := wireproto.DecodeResponse(body, &c.resp); err != nil {
		return 0, 0, reply{}, err
	}
	r := reply{status: stFail}
	switch c.resp.Type {
	case wireproto.RespValue:
		r = reply{status: stValue, val: c.resp.Val}
	case wireproto.RespNotFound:
		r.status = stMiss
	case wireproto.RespStored:
		r.status = stStored
	case wireproto.RespTouched:
		r.status = stTouched
	}
	return n, c.resp.ID, r, nil
}

type textCodec struct{}

func (textCodec) ordered() bool { return true }

func (textCodec) appendReq(buf []byte, _ uint64, o *op) []byte {
	switch o.kind {
	case opGet:
		buf = append(buf, "get "...)
		buf = strconv.AppendUint(buf, o.key, 10)
	case opSet:
		buf = append(buf, "set "...)
		buf = strconv.AppendUint(buf, o.key, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, o.val, 10)
	case opSetTTL:
		buf = append(buf, "setx "...)
		buf = strconv.AppendUint(buf, o.key, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, o.val, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, o.ttl, 10)
	case opTouch:
		buf = append(buf, "touch "...)
		buf = strconv.AppendUint(buf, o.key, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, o.ttl, 10)
	}
	return append(buf, '\n')
}

func (textCodec) parse(buf []byte) (int, uint64, reply, error) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return 0, 0, reply{}, nil
	}
	return i + 1, 0, parseTextReply(bytes.TrimRight(buf[:i], "\r")), nil
}

func parseTextReply(line []byte) reply {
	switch {
	case bytes.HasPrefix(line, []byte("VALUE ")):
		v, err := strconv.ParseUint(string(line[len("VALUE "):]), 10, 64)
		if err != nil {
			return reply{status: stFail}
		}
		return reply{status: stValue, val: v}
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return reply{status: stMiss}
	case bytes.Equal(line, []byte("STORED")):
		return reply{status: stStored}
	case bytes.Equal(line, []byte("TOUCHED")):
		return reply{status: stTouched}
	}
	return reply{status: stFail}
}

// connDriver drives one connection. All state is owned by the goroutine
// that calls run.
type connDriver struct {
	nc       net.Conn
	cdc      codec
	window   int
	lockstep bool
	orc      *oracle   // nil against a null executor: replies are only checked for refusal
	rec      *recorder // nil while preloading: nothing is timed
	spans    *spanLog  // non-nil on a traced leg: one client span per clientSpanEvery-th op
	done     uint64

	slots []inflight
	free  []uint16
	fifo  []uint16 // issue order, for ordered codecs
	head  int
	count int
	seq   uint32

	rbuf []byte
	rlen int
	wbuf []byte

	// Generator self-observation, measured interval only: time blocked
	// in read waiting for the server, and total loop time.
	stallNS, loopNS int64
	failed          uint64 // completions that failed outside any window (preload, warm-up)
}

// preloadWindow is the pipelining depth of set-up's preload, whatever
// the workload's own window: set-up time should not depend on how the
// measured phase paces itself.
const preloadWindow = 64

func newConnDriver(nc net.Conn, cdc codec, w *workload, orc *oracle) *connDriver {
	slots := max(w.window, preloadWindow)
	d := &connDriver{
		nc: nc, cdc: cdc, window: w.window, lockstep: w.lockstep, orc: orc,
		slots: make([]inflight, slots),
		free:  make([]uint16, 0, slots),
		fifo:  make([]uint16, slots),
		rbuf:  make([]byte, 64<<10),
		wbuf:  make([]byte, 0, 16<<10),
	}
	for i := slots - 1; i >= 0; i-- {
		d.free = append(d.free, uint16(i))
	}
	return d
}

// preload writes src's keys at preloadWindow depth and returns once
// every write is acknowledged.
func (d *connDriver) preload(src opSource) error {
	window, lockstep := d.window, d.lockstep
	d.window, d.lockstep = preloadWindow, false
	err := d.run(src, 0)
	d.window, d.lockstep = window, lockstep
	return err
}

// clientSpanEvery is the stride of client spans on a traced served leg.
const clientSpanEvery = 64

// ioTimeout bounds any single blocking read or write: far above any
// healthy reply time, so it only ever fires on a wedged server.
const ioTimeout = 20 * time.Second

// run issues ops from src, keeping the window full (or bursting in lock
// step), until src ends or stopAt passes; it then drains what is in
// flight and returns. A zero stopAt means "until src ends".
func (d *connDriver) run(src opSource, stopAt int64) error {
	srcDone := false
	for {
		now := nowNS()
		if stopAt > 0 && now >= stopAt {
			srcDone = true
		}
		if !srcDone && (!d.lockstep || d.count == 0) {
			for d.count < d.window {
				o, ok := src.next()
				if !ok {
					srcDone = true
					break
				}
				d.issue(&o, now)
			}
		}
		if d.count == 0 {
			if srcDone {
				return nil
			}
			continue
		}
		if len(d.wbuf) > 0 {
			if err := d.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
				return err
			}
			if _, err := d.nc.Write(d.wbuf); err != nil {
				return fmt.Errorf("write: %w", err)
			}
			d.wbuf = d.wbuf[:0]
		}
		t1 := nowNS()
		n, err := d.nc.Read(d.rbuf[d.rlen:])
		if err != nil {
			return fmt.Errorf("read with %d in flight: %w", d.count, err)
		}
		t2 := nowNS()
		d.rlen += n
		win := (*window)(nil)
		if d.rec != nil {
			if win = d.rec.at(t2); win != nil {
				d.stallNS += t2 - t1
				d.loopNS += t2 - now
			}
		}
		if err := d.consume(t2, win); err != nil {
			return err
		}
	}
}

func (d *connDriver) issue(o *op, now int64) {
	slot := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	f := &d.slots[slot]
	d.seq++
	*f = inflight{t0: now, seq: d.seq, inUse: true}
	if d.orc != nil {
		d.orc.issue(o, f)
	}
	d.fifo[(d.head+d.count)%len(d.fifo)] = slot
	d.count++
	d.wbuf = d.cdc.appendReq(d.wbuf, uint64(d.seq)<<16|uint64(slot), o)
}

// consume parses every complete reply in the read buffer and checks it.
func (d *connDriver) consume(now int64, win *window) error {
	off := 0
	for off < d.rlen {
		n, id, r, err := d.cdc.parse(d.rbuf[off:d.rlen])
		if err != nil {
			return fmt.Errorf("reply framing lost: %w", err)
		}
		if n == 0 {
			break
		}
		off += n
		var slot uint16
		if d.cdc.ordered() {
			if d.count == 0 {
				return errors.New("reply with nothing in flight")
			}
			slot = d.fifo[d.head]
		} else {
			slot = uint16(id)
			if int(slot) >= len(d.slots) || !d.slots[slot].inUse || d.slots[slot].seq != uint32(id>>16) {
				return fmt.Errorf("reply for unknown request id %#x", id)
			}
		}
		d.head = (d.head + 1) % len(d.fifo)
		d.count--
		f := &d.slots[slot]
		ok := r.status != stFail
		if d.orc != nil {
			ok = d.orc.complete(f, r)
		}
		if d.spans != nil {
			if d.done++; d.done%clientSpanEvery == 0 {
				d.spans.add("client.op", f.t0, now, d.spans.leg, 1)
			}
		}
		switch {
		case win == nil:
			if !ok {
				d.failed++
			}
		case ok:
			win.ops++
			win.addLat(now - f.t0)
		default:
			win.failed++
		}
		f.inUse = false
		d.free = append(d.free, slot)
	}
	d.rlen = copy(d.rbuf, d.rbuf[off:d.rlen])
	return nil
}
