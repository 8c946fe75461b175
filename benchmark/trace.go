package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"ffwd/internal/obs"
)

// This file is the benchmark's own tracing: spans recorded from outside
// the layers (around each call batch of the layer replay, and around
// every 64th client op of the traced leg), kept in a preallocated slice
// and written at exit as Chrome trace JSON. Spans inside ffwdserve
// beyond what its -trace flag already emits are a later change.

// span is one timed interval. ops is how many operations the interval
// covers, so dur/ops is a per-op cost; parent is the id of the span that
// caused it (0 = root).
type span struct {
	name       string
	start, end int64 // ns since procStart
	id, parent uint32
	ops        int
}

// spanLog is a fixed-capacity span buffer. A full log drops and counts.
type spanLog struct {
	spans []span
	drops uint64
	// leg is the id of the traced leg's span, the parent of the client
	// spans the generator records inside it.
	leg uint32
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{spans: make([]span, 0, capacity)}
}

// add records one span and returns its id (0 if it was dropped).
func (l *spanLog) add(name string, start, end int64, parent uint32, ops int) uint32 {
	if len(l.spans) == cap(l.spans) {
		l.drops++
		return 0
	}
	id := uint32(len(l.spans) + 1)
	l.spans = append(l.spans, span{name: name, start: start, end: end, id: id, parent: parent, ops: ops})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (l *spanLog) open(name string, parent uint32) uint32 {
	return l.add(name, nowNS(), 0, parent, 1)
}

func (l *spanLog) end(id uint32) {
	if id != 0 {
		l.spans[id-1].end = nowNS()
	}
}

// selfTimes returns, per span name, the total time spans of that name
// spent outside their children: a span's duration minus the part of its
// interval its child spans cover.
func (l *spanLog) selfTimes() map[string]int64 {
	child := make(map[uint32]int64)
	for _, s := range l.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]int64)
	for _, s := range l.spans {
		self[s.name] += s.end - s.start - child[s.id]
	}
	return self
}

// traceEvent is one Chrome trace_event record. Spans are complete ("X")
// events; delegation lifecycle events captured by obs keep the instant
// ("i") shape and the args obs.ReadChrome understands, so the file stays
// loadable by cmd/ffwdtrace.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args"`
}

// maxMergedEvents caps how many of the serving side's lifecycle events
// are copied into the benchmark's trace: the text server's per-slot
// rings can hold millions, and the server's own -trace file keeps them
// all.
const maxMergedEvents = 1 << 16

// writeTrace writes spans (pid 1) and the first maxMergedEvents of the
// serving side's delegation lifecycle events (pid 2, shifted by
// eventsOffset ns onto the benchmark's time base) to path.
func writeTrace(path string, l *spanLog, events []obs.Event, eventsOffset int64) error {
	events = events[:min(len(events), maxMergedEvents)]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		f.Close()
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev) // Encode appends the newline
	}
	for _, s := range l.spans {
		tid := 1
		if s.name == "client.op" {
			tid = 2
		}
		err = emit(traceEvent{
			Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.ops},
		})
		if err != nil {
			break
		}
	}
	for _, ev := range events {
		if err != nil {
			break
		}
		tid := 0
		if ev.Slot >= 0 {
			tid = int(ev.Slot) + 1
		}
		ts := ev.TS + eventsOffset
		err = emit(traceEvent{
			Name: ev.Kind.String(), Ph: "i", TS: float64(ts) / 1e3, PID: 2, TID: tid, S: "t",
			Args: map[string]any{"slot": ev.Slot, "arg": ev.Arg, "ns": ts},
		})
	}
	if err == nil {
		_, err = w.WriteString("]}\n")
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// readServerTrace loads the lifecycle events ffwdserve -trace wrote.
func readServerTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadChrome(f)
}
