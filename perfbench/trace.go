package main

import (
	"encoding/json"
	"os"
	"time"
)

// A tracer records spans in memory during the replay and writes them
// out once it is over. A span is one timed call into a module's public
// function; its self time is its duration minus its children's.

type span struct {
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the parent span, -1 for a root
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Self   time.Duration `json:"self_ns"`
}

type tracer struct {
	base  time.Time
	spans []span
	open  []int // stack of open span indexes
	req   int
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span named name as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Req: t.req, Name: name, Parent: parent, Start: time.Since(t.base)})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) time.Duration {
	d := time.Since(t.base) - t.spans[i].Start
	t.spans[i].Dur = d
	t.open = t.open[:len(t.open)-1]
	return d
}

// finish computes self times. Call it once, after the last span ends.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].Dur
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.Dur
		}
	}
}

// durations returns the durations (in ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.Dur))
		}
	}
	return out
}

// cover returns the share of the time of root spans named root that
// their direct children account for.
func (t *tracer) cover(root string) float64 {
	var total, children time.Duration
	for _, s := range t.spans {
		switch {
		case s.Parent < 0 && s.Name == root:
			total += s.Dur
		case s.Parent >= 0 && t.spans[s.Parent].Parent < 0 && t.spans[s.Parent].Name == root:
			children += s.Dur
		}
	}
	if total == 0 {
		return 0
	}
	return float64(children) / float64(total)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
