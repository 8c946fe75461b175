package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ffwd/internal/wireproto"
)

// This file runs the served workloads: it spawns the real ffwdserve
// binary (one process, or a durable leader plus a follower), waits for
// readiness, connects, preloads, and drives the closed-loop connections.

var (
	reTextAddr   = regexp.MustCompile(`backend listening on ([0-9.]+:[0-9]+)`)
	reBinaryAddr = regexp.MustCompile(`binary frontend listening on ([0-9.]+:[0-9]+)`)
	reMemberAddr = regexp.MustCompile(`replica member listening on ([0-9.]+:[0-9]+)`)
	reFinalStats = regexp.MustCompile(`(?:final stats|leader server stats): requests=([0-9]+) sweeps=([0-9]+) batches=([0-9]+)`)
	reTraceWrote = regexp.MustCompile(`wrote ([0-9]+) trace events to \S+ \(([0-9]+) dropped\)`)
)

const readyTimeout = 20 * time.Second

// cluster is the serving side of one served workload.
type cluster struct {
	w     *workload
	bin   string
	dir   string // data dirs and trace files live here
	trace bool

	procs []*proc // follower first, leader last
	addr  string  // client-facing address
}

// startCluster spawns the workload's processes on ephemeral ports and
// returns once every one has logged its listening line (and, for the
// durable pair, the leader reports the follower connected).
func startCluster(w *workload, bin, dir string, trace bool) (*cluster, error) {
	c := &cluster{w: w, bin: bin, dir: dir, trace: trace}
	if err := c.start(); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

func (c *cluster) tracePath() string { return filepath.Join(c.dir, "server-trace.json") }

func (c *cluster) start() error {
	var traceArgs []string
	if c.trace {
		traceArgs = []string{"-trace", c.tracePath()}
	}
	switch c.w.tgt {
	case targetBinary:
		p, err := spawn("server", c.bin, append([]string{"-proto", "binary", "-addr", "127.0.0.1:0"}, traceArgs...)...)
		if err != nil {
			return err
		}
		c.procs = append(c.procs, p)
		c.addr, err = p.waitLog(reBinaryAddr, readyTimeout)
		return err
	case targetText:
		p, err := spawn("server", c.bin, append([]string{"-proto", "text", "-addr", "127.0.0.1:0"}, traceArgs...)...)
		if err != nil {
			return err
		}
		c.procs = append(c.procs, p)
		c.addr, err = p.waitLog(reTextAddr, readyTimeout)
		return err
	case targetDurable:
		// -fsync none: on the sizing sandbox a workload bound by per-record
		// fsync measures the virtual disk's throttle, not the code (see
		// README.md, Limits). The WAL is still written before every
		// acknowledgement, which is all kill -9 can test anyway.
		f, err := spawn("follower", c.bin,
			"-replica-member", "127.0.0.1:0", "-data-dir", filepath.Join(c.dir, "f1"), "-fsync", "none")
		if err != nil {
			return err
		}
		c.procs = append(c.procs, f)
		faddr, err := f.waitLog(reMemberAddr, readyTimeout)
		if err != nil {
			return err
		}
		l, err := spawn("leader", c.bin, append([]string{
			"-addr", "127.0.0.1:0", "-data-dir", filepath.Join(c.dir, "leader"), "-fsync", "none",
			"-peers", faddr, "-clients", "8"}, traceArgs...)...)
		if err != nil {
			return err
		}
		c.procs = append(c.procs, l)
		if c.addr, err = l.waitLog(reTextAddr, readyTimeout); err != nil {
			return err
		}
		return c.waitReplicated()
	}
	return fmt.Errorf("workload %s is not served", c.w.name)
}

// waitReplicated polls the leader's stats verb until the follower link
// is up: a write proposed before that would be refused for lack of
// quorum.
func (c *cluster) waitReplicated() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		line, err := textCommand(c.addr, "stats")
		if err == nil && strings.Contains(line, " alive=2/2 ") {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader never reported alive=2/2 (last: %q, %v)", line, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// leader is the process that serves clients.
func (c *cluster) leader() *proc { return c.procs[len(c.procs)-1] }

func (c *cluster) commandLines() []string {
	var out []string
	for _, p := range c.procs {
		out = append(out, p.name+": ffwdserve "+strings.Join(p.args, " "))
	}
	return out
}

// term asks every process to shut down gracefully (leader first, so it
// stops replicating before its follower goes away) and waits for each.
func (c *cluster) term() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop(syscall.SIGTERM, 5*time.Second)
	}
}

// kill SIGKILLs every process at once and waits for each to be reaped.
func (c *cluster) kill() {
	for _, p := range c.procs {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range c.procs {
		<-p.done
	}
}

// restart brings the processes back from their data dirs after kill and
// returns the time from the first spawn to the first correct reply.
func (c *cluster) restart(probe func(addr string) error) (time.Duration, error) {
	c.procs = nil
	c.trace = false
	t0 := time.Now()
	if err := c.start(); err != nil {
		return 0, err
	}
	if err := probe(c.addr); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// sumProcs adds up one /proc reading over the cluster's processes. A
// process that has just exited reads as nothing.
func sumProcs[T float64 | uint64](c *cluster, read func(pid int) (T, error)) (total T) {
	for _, p := range c.procs {
		if v, err := read(p.pid()); err == nil {
			total += v
		}
	}
	return total
}

func (c *cluster) cpuMicros() float64  { return sumProcs(c, procCPUMicros) }
func (c *cluster) peakRSSMB() float64  { return sumProcs(c, procPeakRSSMB) }
func (c *cluster) ctxSwitches() uint64 { return sumProcs(c, procCtxSwitches) }

// textCommand sends one text-protocol line on a fresh connection and
// returns the one-line reply.
func textCommand(addr, line string) (string, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return "", err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(nc, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := bufio.NewReader(nc).ReadString('\n')
	return strings.TrimSpace(resp), err
}

// storeStats is the store's own counters as the serving side reports
// them.
type storeStats struct {
	hits, misses, evictions, expired uint64
	ok                               bool
}

func (a storeStats) sub(b storeStats) storeStats {
	return storeStats{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.expired - b.expired, a.ok && b.ok}
}

// stats reads the store counters over the workload's protocol. The
// replicated stats verb reports the group, not the store, so the
// durable workload returns ok=false.
func (c *cluster) stats() storeStats {
	switch c.w.tgt {
	case targetText:
		line, err := textCommand(c.addr, "stats")
		if err != nil {
			return storeStats{}
		}
		var s storeStats
		if _, err := fmt.Sscanf(line, "STATS hits=%d misses=%d evictions=%d expired=%d",
			&s.hits, &s.misses, &s.evictions, &s.expired); err != nil {
			return storeStats{}
		}
		s.ok = true
		return s
	case targetBinary:
		nc, err := net.DialTimeout("tcp", c.addr, time.Second)
		if err != nil {
			return storeStats{}
		}
		defer nc.Close()
		if nc.SetDeadline(time.Now().Add(ioTimeout)) != nil {
			return storeStats{}
		}
		frame := wireproto.AppendRequest(nil, &wireproto.Request{Op: wireproto.OpStats, ID: 1})
		if _, err := nc.Write(frame); err != nil {
			return storeStats{}
		}
		buf := make([]byte, 0, 256)
		tmp := make([]byte, 256)
		for {
			body, _, serr := wireproto.Split(buf)
			if serr == nil {
				var resp wireproto.Response
				if wireproto.DecodeResponse(body, &resp) != nil || resp.Type != wireproto.RespStats {
					return storeStats{}
				}
				return storeStats{resp.Hits, resp.Misses, resp.Evictions, resp.Expired, true}
			}
			if !errors.Is(serr, wireproto.ErrShort) {
				return storeStats{}
			}
			n, rerr := nc.Read(tmp)
			if rerr != nil {
				return storeStats{}
			}
			buf = append(buf, tmp[:n]...)
		}
	}
	return storeStats{}
}

// servedConns is the client side of one served run: one driver and one
// oracle per connection.
type servedConns struct {
	w       *workload
	drivers []*connDriver
	oracles []*oracle
}

func (w *workload) newCodec() codec {
	if w.tgt == targetBinary {
		return &binaryCodec{}
	}
	return textCodec{}
}

// connect dials the workload's connections and preloads every
// connection's key partition, returning once each SET is acknowledged.
func connect(w *workload, addr string) (*servedConns, error) {
	sc := &servedConns{w: w}
	for i := 0; i < w.conns; i++ {
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			sc.close()
			return nil, err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // Go's default already; stated because ping-pong depends on it
		}
		orc := newOracle(w.keys, w.missOK)
		sc.oracles = append(sc.oracles, orc)
		sc.drivers = append(sc.drivers, newConnDriver(nc, w.newCodec(), w, orc))
	}
	err := sc.each(func(i int, d *connDriver) error {
		if err := d.preload(newPreload(w, i)); err != nil {
			return err
		}
		if d.failed > 0 || d.orc.violations > 0 {
			return fmt.Errorf("conn %d: %d preload writes failed", i, d.failed)
		}
		return nil
	})
	if err != nil {
		sc.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return sc, nil
}

// each runs fn once per connection, each on its own goroutine, and
// returns the first error.
func (sc *servedConns) each(fn func(i int, d *connDriver) error) error {
	errs := make([]error, len(sc.drivers))
	var wg sync.WaitGroup
	for i, d := range sc.drivers {
		wg.Add(1)
		go func(i int, d *connDriver) {
			defer wg.Done()
			errs[i] = fn(i, d)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (sc *servedConns) close() {
	for _, d := range sc.drivers {
		d.nc.Close()
	}
}

func (sc *servedConns) violations() (n uint64) {
	for _, o := range sc.oracles {
		n += o.violations
	}
	return n
}

func (sc *servedConns) unwindowedFailures() (n uint64) {
	for _, d := range sc.drivers {
		n += d.failed
	}
	return n
}

// readBack reads every key of every connection's partition from addr
// and checks it against that connection's oracle. It returns keys read
// and keys whose acknowledged write did not survive.
func (sc *servedConns) readBack(addr string) (read, lost uint64, err error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(2 * ioTimeout)); err != nil {
		return 0, 0, err
	}
	br := bufio.NewReader(nc)
	var line []byte
	for key := uint64(0); key < sc.w.keys; key++ {
		line = strconv.AppendUint(append(line[:0], "get "...), key, 10)
		line = append(line, '\n')
		if _, err := nc.Write(line); err != nil {
			return read, lost, err
		}
		resp, err := br.ReadBytes('\n')
		if err != nil {
			return read, lost, err
		}
		read++
		orc := sc.oracles[key%uint64(sc.w.conns)]
		if !orc.readBack(key, parseTextReply([]byte(strings.TrimSpace(string(resp))))) {
			lost++
		}
	}
	return read, lost, nil
}

// workDir makes a fresh directory for one cluster's data under base.
func workDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
