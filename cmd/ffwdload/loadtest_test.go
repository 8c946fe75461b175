package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// This file is the loadtest smoke harness behind `make loadtest`: it
// builds the real ffwdserve binary, serves both protocols on ephemeral
// ports, and drives them with the in-process load core plus the real
// ffwdload binary.

var (
	serveBin string
	loadBin  string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ffwdload-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	serveBin = filepath.Join(dir, "ffwdserve")
	loadBin = filepath.Join(dir, "ffwdload")
	for bin, pkg := range map[string]string{serveBin: "./cmd/ffwdserve", loadBin: "./cmd/ffwdload"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	textAddrRE = regexp.MustCompile(`backend listening on (\S+)`)
	binAddrRE  = regexp.MustCompile(`binary frontend listening on (\S+)`)
	activeRE   = regexp.MustCompile(`(?m)^ffwd_(frontend|text)_active_conns (\d+)$`)
)

// startServer runs ffwdserve -proto both on ephemeral ports and returns
// the two resolved addresses scraped from its startup log.
func startServer(t *testing.T, extra ...string) (textAddr, binAddr string) {
	t.Helper()
	args := append([]string{
		"-proto", "both",
		"-addr", "127.0.0.1:0",
		"-binary-addr", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(serveBin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})

	sc := bufio.NewScanner(stderr)
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for textAddr == "" || binAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("ffwdserve exited before announcing listeners (text=%q bin=%q)", textAddr, binAddr)
			}
			if m := textAddrRE.FindStringSubmatch(line); m != nil {
				textAddr = m[1]
			}
			if m := binAddrRE.FindStringSubmatch(line); m != nil {
				binAddr = m[1]
			}
		case <-deadline:
			t.Fatal("timed out waiting for ffwdserve listeners")
		}
	}
	// Keep draining stderr so the server never blocks on a full pipe.
	go func() {
		for range lines {
		}
	}()
	return textAddr, binAddr
}

// freeAddr returns a loopback address nothing listens on (ffwdserve logs
// -stats-addr as given, so an ephemeral :0 could not be scraped).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// activeConns scrapes each frontend's open-connection gauge, by stats
// prefix ("frontend" is binary's, "text" the line codec's).
func activeConns(statsAddr string) (map[string]int, error) {
	resp, err := http.Get("http://" + statsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	active := map[string]int{}
	for _, m := range activeRE.FindAllSubmatch(body, -1) {
		if active[string(m[1])], err = strconv.Atoi(string(m[2])); err != nil {
			return nil, err
		}
	}
	if len(active) != 2 {
		return nil, fmt.Errorf("no active_conns gauge for both frontends in /metrics")
	}
	return active, nil
}

// TestLoadSmoke is the `make loadtest` gate: a short open-loop run
// against each frontend must complete operations and attribute tail
// latency, or the serving path is broken. The benchmark's workloads
// hold one or two connections, so each frontend also takes two
// closed-loop many-connection shapes here — 64 connections contending
// for one executor pool — with no error, no connection left unserved,
// none left open once the generator is gone.
func TestLoadSmoke(t *testing.T) {
	statsAddr := freeAddr(t)
	textAddr, binAddr := startServer(t, "-stats-addr", statsAddr)
	for _, codec := range []struct{ proto, addr, stat string }{
		{"binary", binAddr, "frontend"},
		{"text", textAddr, "text"},
	} {
		for _, shape := range []struct{ conns, outstanding int }{{64, 1}, {32, 8}} {
			t.Run(fmt.Sprintf("%s-%dx%d", codec.proto, shape.conns, shape.outstanding), func(t *testing.T) {
				res, err := runLoad(loadConfig{
					addr:        codec.addr,
					proto:       codec.proto,
					conns:       shape.conns,
					duration:    1200 * time.Millisecond,
					warmup:      200 * time.Millisecond,
					getPct:      90,
					keys:        4096,
					outstanding: shape.outstanding,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops == 0 || res.Errors != 0 || res.IdleConns != 0 {
					t.Fatalf("ops=%d errors=%d connections without an op=%d, want >0, 0, 0", res.Ops, res.Errors, res.IdleConns)
				}
				for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
					active, err := activeConns(statsAddr)
					if err != nil {
						t.Fatal(err)
					}
					if active[codec.stat] == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("server still holds %d connections after the generator exited", active[codec.stat])
					}
				}
				t.Logf("%d conns x %d outstanding: %.0f ops/s p50=%.1fµs p99=%.1fµs", shape.conns, shape.outstanding,
					res.OpsPerSec, res.quantileUS(0.5), res.quantileUS(0.99))
			})
		}
	}
	for _, tc := range []struct {
		proto, addr string
	}{
		{"binary", binAddr},
		{"text", textAddr},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			res, err := runLoad(loadConfig{
				addr:        tc.addr,
				proto:       tc.proto,
				conns:       2,
				rate:        4000,
				duration:    1200 * time.Millisecond,
				warmup:      200 * time.Millisecond,
				getPct:      80,
				ttlSetPct:   10,
				touchPct:    5,
				ttl:         60000,
				keys:        1024,
				outstanding: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("zero operations completed")
			}
			if res.Hist.Count() == 0 {
				t.Fatal("no latencies recorded: p99 unattributed")
			}
			if p99 := res.quantileUS(0.99); p99 <= 0 {
				t.Fatalf("p99 = %v µs, want > 0", p99)
			}
			t.Logf("%s: %.0f ops/s p50=%.1fµs p99=%.1fµs (ops=%d errors=%d stalls=%d)",
				tc.proto, res.OpsPerSec, res.quantileUS(0.5), res.quantileUS(0.99),
				res.Ops, res.Errors, res.Stalls)
		})
	}
}

// TestLoadReplicatedBinarySmoke pins that -proto binary (here: both)
// starts with -replicas and serves: the replicated backend is an
// executor like the others, so the binary dataplane runs over it, each
// batch's run of writes committing as one quorum round.
func TestLoadReplicatedBinarySmoke(t *testing.T) {
	_, binAddr := startServer(t, "-replicas", "3")
	res, err := runLoad(loadConfig{
		addr:        binAddr,
		proto:       "binary",
		conns:       2,
		rate:        4000,
		duration:    1200 * time.Millisecond,
		warmup:      200 * time.Millisecond,
		getPct:      50,
		keys:        1024,
		outstanding: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("replicated binary run: ops=%d errors=%d, want >0 and 0", res.Ops, res.Errors)
	}
	t.Logf("binary over -replicas 3: %.0f ops/s p50=%.1fµs p99=%.1fµs", res.OpsPerSec, res.quantileUS(0.5), res.quantileUS(0.99))
}

// TestLoadBinarySmoke runs the real ffwdload binary end to end: exit 0
// with a parseable report against a live server, nonzero against a dead
// port.
func TestLoadBinarySmoke(t *testing.T) {
	_, binAddr := startServer(t)
	out, err := exec.Command(loadBin,
		"-addr", binAddr,
		"-conns", "1",
		"-rate", "2000",
		"-duration", "1s",
		"-warmup", "200ms",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("ffwdload failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ops/s") {
		t.Fatalf("report missing throughput:\n%s", out)
	}

	if out, err := exec.Command(loadBin,
		"-addr", "127.0.0.1:1", "-duration", "1s", "-warmup", "1ms",
	).CombinedOutput(); err == nil {
		t.Fatalf("ffwdload against a dead port exited zero:\n%s", out)
	}
}
