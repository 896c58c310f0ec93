package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans of one query share Query; Parent
// is the ID of the span that caused this one (0 = none). Counts carry
// the work done inside the interval, so ratios are measured where the
// work happens.
type span struct {
	Workload string           `json:"workload"`
	Query    int              `json:"query"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// timed passes and the traced pass run the same code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(query int, layer, name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Workload: t.workload, Query: query, Layer: layer, Name: name,
		ID: id, Parent: parent, StartNS: start,
	})
	return id
}

// end closes span id, attaching counts.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = end
	s.Counts = counts
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(query int, layer, name string, parent int, startNS, endNS int64, counts map[string]int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Workload: t.workload, Query: query, Layer: layer, Name: name,
		ID: id, Parent: parent, StartNS: startNS, EndNS: endNS, Counts: counts,
	})
	return id
}

// aggregate records an already-measured interval total (callbacks timed
// inside a wrapper) as a child span: its length is the summed time, its
// start is the parent's start.
func (t *tracer) aggregate(query int, layer, name string, parent int, total time.Duration, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := int64(0)
	if parent > 0 {
		start = t.spans[parent-1].StartNS
	}
	t.spans = append(t.spans, span{
		Workload: t.workload, Query: query, Layer: layer, Name: name,
		ID: len(t.spans) + 1, Parent: parent, StartNS: start, EndNS: start + int64(total),
		Counts: counts,
	})
}

// writeJSONL writes the spans, one JSON object per line, to
// dir/trace-<workload>.jsonl.
func (t *tracer) writeJSONL(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
