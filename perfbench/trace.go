package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval, recorded by the benchmark around a call
// into a public function of the program. Spans of one query, mutate or
// kernel trial share Req.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// newReq returns a fresh request id.
func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartUS: start})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndUS = end
	return (s.EndUS - s.StartUS) / 1e6
}

// do runs f inside a span and returns the span's duration in seconds.
func (t *tracer) do(name string, parent, req int, f func()) float64 {
	id := t.begin(name, parent, req)
	f()
	return t.end(id)
}

// write stores the span log under .bench_build/traces in the current
// directory and returns its path.
func (t *tracer) write(cfg config) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
