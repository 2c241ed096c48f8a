package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request id; spans of one request share it
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced loop runs.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: now(), spans: make([]span, 0, 1<<17)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// rename names a span after the fact, for spans named by their outcome.
func (t *tracer) rename(i int, name string) {
	if t != nil {
		t.spans[i].Name = name
	}
}

// selfTimes returns each span's duration minus the time its children
// cover, in nanoseconds. Children of one span never overlap: the
// benchmark makes one call at a time.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// durations returns the durations in seconds of the spans with the
// given name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes prints, per span name, the count and the median and
// total self time.
func printSelfTimes(t *tracer) {
	self := t.selfTimes()
	byName := map[string][]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i])/1e3)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-14s %8s %14s %14s\n", "span", "count", "self p50 us", "self total ms")
	for _, n := range names {
		v := byName[n]
		total := 0.0
		for _, x := range v {
			total += x
		}
		fmt.Printf("  %-14s %8d %14.2f %14.2f\n", n, len(v), median(v), total/1e3)
	}
}
