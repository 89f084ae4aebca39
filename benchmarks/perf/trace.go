package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent names the span that caused this one ("" for the root).
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the gated run keeps tracing off its path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per operation, each span name's self time in
// nanoseconds: the span's duration minus the part its direct children
// cover. Spans with the same name inside one operation add up.
func selfTimes(spans []span) map[int64]map[string]int64 {
	type key struct {
		op   int64
		name string
	}
	children := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Op, s.Parent}] += s.End - s.Start
		}
	}
	out := make(map[int64]map[string]int64)
	for _, s := range spans {
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]int64)
		}
		out[s.Op][s.Name] += s.End - s.Start
	}
	for k, covered := range children {
		if m := out[k.op]; m != nil {
			if _, ok := m[k.name]; ok {
				m[k.name] -= covered
			}
		}
	}
	return out
}
