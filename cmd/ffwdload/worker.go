package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ffwd/internal/stats"
	"ffwd/internal/wireproto"
)

// This file is the open-loop worker core. Each connection runs one
// sender and one reader. The sender paces requests on a fixed schedule
// (next = next + interval) and never skips a slot: when the server or
// the outstanding cap falls behind, requests queue against their
// *scheduled* send time, and latency is measured from that schedule.
// That is the coordinated-omission-safe discipline — a stalled server
// inflates the recorded tail instead of silently thinning the load.

// loadConfig parameterizes one load phase against one frontend.
type loadConfig struct {
	addr        string
	proto       string // "binary" or "text"
	conns       int
	rate        float64 // total target ops/s across conns (0 = closed loop)
	duration    time.Duration
	warmup      time.Duration
	getPct      int
	ttlSetPct   int    // percent of ops that are TTL SETs (setx)
	touchPct    int    // percent of ops that are TOUCHes
	ttl         uint64 // TTL attached to setx/touch, in server ticks (ms)
	keys        uint64
	outstanding int // per-conn in-flight cap
	crc         bool
}

// loadResult aggregates one phase. Latencies are nanoseconds from the
// scheduled send time to response decode.
type loadResult struct {
	Ops       uint64 // completions recorded after warmup
	Errors    uint64 // ERROR/BUSY replies (recorded window)
	Stalls    uint64 // sends that blocked on the outstanding cap
	IdleConns int    // connections that recorded no completion
	Elapsed   time.Duration
	Hist      stats.Histogram
	OpsPerSec float64
}

func (r *loadResult) quantileUS(q float64) float64 { return r.Hist.Quantile(q) / 1e3 }

// schedRing holds scheduled send times for in-flight binary requests,
// indexed by request ID. It is deliberately much larger than the
// outstanding cap so one slow response cannot collide with the IDs that
// cycle past it. Slots are atomics: the reader thread loads them
// without locking the sender.
const schedRingBits = 15 // 32768 slots

type schedRing struct {
	slots [1 << schedRingBits]atomic.Int64
}

func (s *schedRing) put(id uint64, ns int64) { s.slots[id&(1<<schedRingBits-1)].Store(ns) }
func (s *schedRing) get(id uint64) int64     { return s.slots[id&(1<<schedRingBits-1)].Load() }

// xorshift is the per-conn key/op PRNG — deterministic per seed so two
// A/B phases issue statistically identical workloads.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// runLoad executes one phase: conns workers against cfg.addr, results
// merged. An error means the phase could not run at all (dial failure);
// per-op errors are counted, not fatal.
func runLoad(cfg loadConfig) (*loadResult, error) {
	if cfg.conns < 1 {
		cfg.conns = 1
	}
	if cfg.outstanding < 1 {
		cfg.outstanding = 1
	}
	interval := time.Duration(0)
	if cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(cfg.conns) / cfg.rate)
	}

	results := make([]*loadResult, cfg.conns)
	errs := make([]error, cfg.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &loadResult{}
			var err error
			switch cfg.proto {
			case "binary":
				err = runBinaryConn(cfg, interval, uint64(i+1), r)
			case "text":
				err = runTextConn(cfg, interval, uint64(i+1), r)
			default:
				err = fmt.Errorf("unknown proto %q", cfg.proto)
			}
			results[i], errs[i] = r, err
		}(i)
	}
	wg.Wait()

	total := &loadResult{Elapsed: time.Since(start)}
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("conn %d: %w", i, errs[i])
		}
		total.Ops += r.Ops
		if r.Ops == 0 {
			total.IdleConns++
		}
		total.Errors += r.Errors
		total.Stalls += r.Stalls
		total.Hist.Merge(&r.Hist)
	}
	window := cfg.duration - cfg.warmup
	if window <= 0 {
		window = cfg.duration
	}
	total.OpsPerSec = float64(total.Ops) / window.Seconds()
	return total, nil
}

// Workload op kinds produced by genOp.
const (
	opGet = iota
	opSet
	opSetTTL
	opTouch
)

// genOp picks the next op from the workload mix. A single r%100 draw is
// partitioned get | setx | touch | set, so the mix is deterministic per
// seed and two phases with equal flags issue identical op sequences.
func genOp(rng *xorshift, cfg *loadConfig) (kind int, key, val uint64) {
	r := rng.next()
	key = (r >> 32) % cfg.keys
	c := int(r % 100)
	switch {
	case c < cfg.getPct:
		return opGet, key, 0
	case c < cfg.getPct+cfg.ttlSetPct:
		return opSetTTL, key, key + 1
	case c < cfg.getPct+cfg.ttlSetPct+cfg.touchPct:
		return opTouch, key, 0
	default:
		return opSet, key, key + 1
	}
}

// runBinaryConn drives one binary-protocol connection: pipelined
// requests under the outstanding cap, out-of-order completions matched
// back to their schedule by request ID.
func runBinaryConn(cfg loadConfig, interval time.Duration, seed uint64, res *loadResult) error {
	nc, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer nc.Close()

	sched := &schedRing{}
	sem := make(chan struct{}, cfg.outstanding)
	warmupEnd := time.Now().Add(cfg.warmup)
	deadline := time.Now().Add(cfg.duration)

	var sent, done atomic.Uint64
	senderDone := make(chan struct{})
	readerDone := make(chan struct{})

	// Reader: decode frames as they arrive, attribute each to its
	// scheduled send time, release the in-flight slot.
	go func() {
		defer close(readerDone)
		rbuf := make([]byte, 64<<10)
		rlen := 0
		var resp wireproto.Response
		for {
			for {
				body, n, serr := wireproto.Split(rbuf[:rlen])
				if serr != nil {
					if errors.Is(serr, wireproto.ErrShort) {
						break
					}
					return // framing lost; connection is useless
				}
				now := time.Now()
				if derr := wireproto.DecodeResponse(body, &resp); derr == nil {
					// A zero schedule slot marks an unsolicited frame
					// (e.g. an admission BUSY); it attributes to nothing
					// and holds no in-flight slot.
					if s := sched.get(resp.ID); s > 0 {
						lat := now.UnixNano() - s
						if lat > 0 && now.After(warmupEnd) {
							res.Hist.Record(uint64(lat))
							res.Ops++
							if resp.Type == wireproto.RespError || resp.Type == wireproto.RespBusy {
								res.Errors++
							}
						}
						done.Add(1)
						select {
						case <-sem:
						default:
						}
					}
				}
				rlen = copy(rbuf, rbuf[n:rlen])
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, rerr := nc.Read(rbuf[rlen:])
			if rerr != nil {
				return
			}
			rlen += n
		}
	}()

	// Sender: paced open loop.
	go func() {
		defer close(senderDone)
		w := bufio.NewWriterSize(nc, 32<<10)
		rng := xorshift(seed*0x9E3779B97F4A7C15 + 1)
		var req wireproto.Request
		if cfg.crc {
			req.Flags = wireproto.FlagCRC
		}
		var frame []byte
		id := uint64(0)
		next := time.Now()
		for {
			now := time.Now()
			if now.After(deadline) {
				break
			}
			if interval > 0 {
				if now.Before(next) {
					// Ahead of schedule: push buffered frames out, then
					// sleep to the next slot.
					w.Flush()
					time.Sleep(next.Sub(now))
				}
			} else {
				next = now
			}
			select {
			case sem <- struct{}{}:
			default:
				// Outstanding cap reached at the scheduled instant:
				// flush and block. The slot keeps its scheduled time, so
				// the wait shows up in the recorded latency.
				res.Stalls++
				w.Flush()
				sem <- struct{}{}
			}
			id++
			kind, key, val := genOp(&rng, &cfg)
			req.ID = id
			req.Val, req.TTL = 0, 0
			switch kind {
			case opGet:
				req.Op, req.Key = wireproto.OpGet, key
			case opSetTTL:
				req.Op, req.Key, req.Val, req.TTL = wireproto.OpSetTTL, key, val, cfg.ttl
			case opTouch:
				req.Op, req.Key, req.TTL = wireproto.OpTouch, key, cfg.ttl
			default:
				req.Op, req.Key, req.Val = wireproto.OpSet, key, val
			}
			sched.put(id, next.UnixNano())
			frame = wireproto.AppendRequest(frame[:0], &req)
			w.Write(frame)
			if interval > 0 {
				next = next.Add(interval)
			} else if w.Buffered() >= 16<<10 {
				w.Flush()
			}
		}
		w.Flush()
		sent.Store(id)
	}()

	<-senderDone
	// Drain: give in-flight requests a grace period to complete.
	drainUntil := time.Now().Add(2 * time.Second)
	for done.Load() < sent.Load() && time.Now().Before(drainUntil) {
		select {
		case <-readerDone:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
	nc.Close()
	<-readerDone
	return nil
}

// runTextConn drives one text-protocol connection. Text replies are
// strictly in submission order, so the in-flight schedule is a FIFO
// channel whose capacity doubles as the outstanding cap.
func runTextConn(cfg loadConfig, interval time.Duration, seed uint64, res *loadResult) error {
	nc, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer nc.Close()

	pend := make(chan int64, cfg.outstanding)
	warmupEnd := time.Now().Add(cfg.warmup)
	deadline := time.Now().Add(cfg.duration)

	var sent, done atomic.Uint64
	senderDone := make(chan struct{})
	readerDone := make(chan struct{})

	go func() {
		defer close(readerDone)
		r := bufio.NewReaderSize(nc, 64<<10)
		for {
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			line, rerr := r.ReadString('\n')
			if rerr != nil {
				return
			}
			now := time.Now()
			var schedNS int64
			select {
			case schedNS = <-pend:
			case <-time.After(5 * time.Second):
				// A reply with no pending request (e.g. an admission
				// BUSY or idle-timeout notice): nothing to attribute.
				return
			}
			lat := now.UnixNano() - schedNS
			if lat > 0 && now.After(warmupEnd) {
				res.Hist.Record(uint64(lat))
				res.Ops++
				if strings.HasPrefix(line, "ERROR") || strings.HasPrefix(line, "BUSY") {
					res.Errors++
				}
			}
			done.Add(1)
		}
	}()

	go func() {
		defer close(senderDone)
		w := bufio.NewWriterSize(nc, 32<<10)
		rng := xorshift(seed*0x9E3779B97F4A7C15 + 1)
		var line []byte
		id := uint64(0)
		next := time.Now()
		for {
			now := time.Now()
			if now.After(deadline) {
				break
			}
			if interval > 0 {
				if now.Before(next) {
					w.Flush()
					time.Sleep(next.Sub(now))
				}
			} else {
				next = now
			}
			kind, key, val := genOp(&rng, &cfg)
			switch kind {
			case opGet:
				line = append(line[:0], "get "...)
				line = appendUint(line, key)
			case opSetTTL:
				line = append(line[:0], "setx "...)
				line = appendUint(line, key)
				line = append(line, ' ')
				line = appendUint(line, val)
				line = append(line, ' ')
				line = appendUint(line, cfg.ttl)
			case opTouch:
				line = append(line[:0], "touch "...)
				line = appendUint(line, key)
				line = append(line, ' ')
				line = appendUint(line, cfg.ttl)
			default:
				line = append(line[:0], "set "...)
				line = appendUint(line, key)
				line = append(line, ' ')
				line = appendUint(line, val)
			}
			line = append(line, '\n')
			select {
			case pend <- next.UnixNano():
			default:
				res.Stalls++
				w.Flush()
				pend <- next.UnixNano()
			}
			id++
			w.Write(line)
			if interval > 0 {
				next = next.Add(interval)
			} else if w.Buffered() >= 16<<10 {
				w.Flush()
			}
		}
		w.Flush()
		sent.Store(id)
	}()

	<-senderDone
	drainUntil := time.Now().Add(2 * time.Second)
	for done.Load() < sent.Load() && time.Now().Before(drainUntil) {
		select {
		case <-readerDone:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
	nc.Close()
	<-readerDone
	return nil
}

func appendUint(b []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}
