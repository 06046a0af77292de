package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// simulation share its Sim id; Parent is the index of the enclosing
// span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	Module  string `json:"module"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Sim     int    `json:"sim"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, module string, parent, sim int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Module: module, Parent: parent, Sim: sim,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// durationsMS returns the duration of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfMS is each module's self time: its spans' durations minus the
// part their child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := float64(s.EndNS-s.StartNS) / 1e6
		self[s.Module] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Module] -= d
		}
	}
	return self
}

// write stores the spans and the per-module self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms_by_module"`
		Spans  []span             `json:"spans"`
	}{t.selfMS(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
