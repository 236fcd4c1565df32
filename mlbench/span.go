package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Span is one timed call into a layer, recorded by the harness around
// the layer's public function. Parent is the index of the enclosing
// span in the recorder (-1 at the root); Run identifies the workload
// iteration the span belongs to.
type Span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer records spans in memory. A nil *Tracer records nothing, so
// untraced iterations pay only a nil check per layer call.
type Tracer struct {
	epoch time.Time
	run   int
	spans []Span
	open  []int // stack of open span indices
}

// NewTracer starts a recorder whose span times are offsets from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Handle closes the span Begin opened.
type Handle struct {
	t  *Tracer
	id int
}

// Begin opens a span named name under the innermost open span.
func (t *Tracer) Begin(name string) Handle {
	if t == nil {
		return Handle{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.epoch), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return Handle{t: t, id: id}
}

// End closes the span. Spans close in the reverse order they opened.
func (h Handle) End() {
	if h.t == nil {
		return
	}
	h.t.spans[h.id].End = time.Since(h.t.epoch)
	if n := len(h.t.open); n > 0 && h.t.open[n-1] == h.id {
		h.t.open = h.t.open[:n-1]
	}
}

// NextRun starts a new iteration id for the spans that follow.
func (t *Tracer) NextRun() {
	if t != nil {
		t.run++
	}
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Overlapping children
// (calls made concurrently) are counted once, via the union of their
// intervals clipped to the parent.
func SelfTimes(spans []Span) []time.Duration {
	type iv struct{ a, b time.Duration }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := children[i]
		slices.SortFunc(cs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		covered := time.Duration(0)
		cur := iv{-1, -1}
		for _, c := range cs {
			a, b := max(c.a, s.Start), min(c.b, s.End)
			if b <= a {
				continue
			}
			if a > cur.b {
				covered += cur.b - cur.a
				cur = iv{a, b}
			} else if b > cur.b {
				cur.b = b
			}
		}
		covered += cur.b - cur.a
		self[i] = s.Duration() - covered
	}
	return self
}

// LayerTime sums the self time of the spans named name in iteration
// run.
func (t *Tracer) LayerTime(run int, name string) time.Duration {
	self := SelfTimes(t.spans)
	var sum time.Duration
	for i, s := range t.spans {
		if s.Run == run && s.Name == name {
			sum += self[i]
		}
	}
	return sum
}

// WriteFile writes every recorded span, one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
