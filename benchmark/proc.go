package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is process hygiene: spawned servers run in their own
// process group, are tracked in one registry, and are SIGKILLed on every
// way out of the benchmark (normal return, error, SIGINT, panic).
// Readiness is decided by log line, as internal/procchaos does.

// proc is one spawned ffwdserve process with its stderr captured.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped

	mu     sync.Mutex
	log    []byte
	notify chan struct{} // poked on every log write and on exit
}

var children struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

// spawn starts bin with args, teeing its stderr into the proc's log
// buffer. The child gets its own process group so a terminal SIGINT
// reaches only the benchmark, which then cleans up deliberately.
func spawn(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	p := &proc{name: name, args: args, cmd: cmd, done: make(chan struct{}), notify: make(chan struct{}, 1)}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = make(map[*proc]struct{})
	}
	children.procs[p] = struct{}{}
	children.mu.Unlock()
	go func() {
		r := bufio.NewReader(stderr)
		for {
			line, rerr := r.ReadBytes('\n')
			if len(line) > 0 {
				p.mu.Lock()
				p.log = append(p.log, line...)
				p.mu.Unlock()
				p.poke()
			}
			if rerr != nil {
				break
			}
		}
		// Wait only after the pipe is drained (os/exec's contract).
		_ = cmd.Wait() // exit status is irrelevant: servers die by signal here
		children.mu.Lock()
		delete(children.procs, p)
		children.mu.Unlock()
		close(p.done)
		p.poke()
	}()
	return p, nil
}

func (p *proc) poke() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return string(p.log)
}

// waitLog blocks until the process log matches re and returns the first
// capture group (or the whole match).
func (p *proc) waitLog(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		m := re.FindSubmatch(p.log)
		p.mu.Unlock()
		if m != nil {
			return string(m[len(m)-1]), nil
		}
		select {
		case <-p.notify:
		case <-p.done:
			p.mu.Lock()
			m := re.FindSubmatch(p.log)
			p.mu.Unlock()
			if m != nil {
				return string(m[len(m)-1]), nil
			}
			return "", fmt.Errorf("%s exited before logging %v; log:\n%s", p.name, re, p.logText())
		case <-deadline.C:
			return "", fmt.Errorf("%s: log never matched %v within %v; log:\n%s", p.name, re, timeout, p.logText())
		}
	}
}

// stop delivers sig and waits for the process to be reaped, escalating
// to SIGKILL if it does not exit in time.
func (p *proc) stop(sig syscall.Signal, timeout time.Duration) {
	_ = p.cmd.Process.Signal(sig) // already-exited is fine
	select {
	case <-p.done:
		return
	case <-time.After(timeout):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// killAll SIGKILLs every live child's process group and waits for each
// to be reaped. Safe to call more than once.
func killAll() {
	children.mu.Lock()
	live := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		live = append(live, p)
	}
	children.mu.Unlock()
	for _, p := range live {
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
	}
	for _, p := range live {
		<-p.done
	}
}

// buildServer compiles cmd/ffwdserve from the repository at root into
// dir and returns the binary's path. go build is its own staleness
// check: an up-to-date output is left alone.
func buildServer(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "ffwdserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ffwdserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build ffwdserve: %w\n%s", err, out)
	}
	return bin, nil
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module ffwd\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the ffwd module (no go.mod found)")
		}
		dir = parent
	}
}

// The /proc readers below measure the serving side from outside it.

// clockTick is USER_HZ, the unit of /proc/PID/stat CPU times. It is 100
// on every Linux configuration Go supports.
const clockTick = 100

// procCPUMicros returns user+system CPU of pid in µs (10 ms resolution).
func procCPUMicros(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 overall, 12 and 13 after the ") ".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return float64(ut+st) * 1e6 / clockTick, nil
}

// statusField reads one "Key:   <n> ..." line of a /proc status file.
func statusField(path, key string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// procPeakRSSMB returns pid's resident-set high-water mark in MB.
func procPeakRSSMB(pid int) (float64, error) {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024, err
}

// procCtxSwitches sums voluntary and involuntary context switches over
// every thread of pid (the status file of the process itself covers
// only its main thread).
func procCtxSwitches(pid int) (uint64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads readable", pid)
	}
	var total uint64
	for _, t := range tasks {
		v, err1 := statusField(t, "voluntary_ctxt_switches")
		nv, err2 := statusField(t, "nonvoluntary_ctxt_switches")
		if err1 != nil || err2 != nil {
			continue // a thread that exited between the glob and the read
		}
		total += v + nv
	}
	return total, nil
}

// selfCPUMicros returns this process's user+system CPU in µs.
func selfCPUMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}
