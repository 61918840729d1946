package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Start and End
// are nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg accumulates every span of one name, kept or not.
type spanAgg struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

// maxKeptSpans bounds the raw spans held in memory; the per-name
// aggregates always cover every span.
const maxKeptSpans = 50_000

// tracer collects spans from any number of lanes. Spans stay in memory
// until write.
type tracer struct {
	run   string
	epoch time.Time
	ids   atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	agg     map[string]*spanAgg
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), agg: map[string]*spanAgg{}}
}

// lane records the spans of one goroutine. Spans on a lane nest
// strictly, so a span's self time is its duration minus the sum of its
// direct children's. A lane is not safe for concurrent use; merge it
// into its tracer once its goroutine is done.
type lane struct {
	t      *tracer
	root   int64
	stack  []openSpan
	spans  []span
	agg    map[string]*spanAgg
	budget int
}

type openSpan struct {
	id    int64
	name  string
	start time.Time
	child time.Duration
}

// lane starts a lane whose top-level spans are children of span root.
func (t *tracer) lane(root int64) *lane {
	return &lane{t: t, root: root, agg: map[string]*spanAgg{}, budget: maxKeptSpans / 16}
}

func (l *lane) begin(name string) {
	l.stack = append(l.stack, openSpan{id: l.t.ids.Add(1), name: name, start: time.Now()})
}

// end closes the innermost open span.
func (l *lane) end() {
	now := time.Now()
	o := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := now.Sub(o.start)
	a := l.agg[o.name]
	if a == nil {
		a = &spanAgg{}
		l.agg[o.name] = a
	}
	a.Count++
	a.Total += d
	a.Self += d - o.child
	parent := l.root
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
		parent = l.stack[n-1].id
	}
	if len(l.spans) < l.budget {
		l.spans = append(l.spans, span{
			ID: o.id, Parent: parent, Run: l.t.run, Name: o.name,
			Start: o.start.Sub(l.t.epoch).Nanoseconds(), End: now.Sub(l.t.epoch).Nanoseconds(),
		})
	}
}

// add records a span measured elsewhere (for intervals that begin and
// end on different goroutines) and returns its ID.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(name, end.Sub(start), end.Sub(start))
	t.keep(span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) note(name string, total, self time.Duration) {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.Count++
	a.Total += total
	a.Self += self
}

func (t *tracer) keep(s span) {
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// merge folds a finished lane into its tracer.
func (l *lane) merge() {
	t := l.t
	t.mu.Lock()
	defer t.mu.Unlock()
	//qa:allow determinism order-free: sums into another map
	for name, a := range l.agg {
		b := t.agg[name]
		if b == nil {
			b = &spanAgg{}
			t.agg[name] = b
		}
		b.Count += a.Count
		b.Total += a.Total
		b.Self += a.Self
	}
	for _, s := range l.spans {
		t.keep(s)
	}
	l.agg = map[string]*spanAgg{}
	l.spans = nil
}

// total returns the summed duration and self time of the spans named
// name, in seconds.
func (t *tracer) total(name string) (total, self float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return a.Total.Seconds(), a.Self.Seconds()
	}
	return 0, 0
}

// selfTime returns parent's duration minus the part of its interval that
// the children cover. Children may overlap one another (they ran on
// different goroutines) and may stick out of the parent; only the union
// of their intervals clipped to the parent counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.End - parent.Start - covered
}

// write saves the kept spans as JSON lines, after one header line with
// the environment and the per-name aggregates.
func (t *tracer) write(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	aggs := map[string]map[string]any{}
	for name, a := range t.agg {
		aggs[name] = map[string]any{"count": a.Count, "total_s": a.Total.Seconds(), "self_s": a.Self.Seconds()}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"run": t.run, "env": env, "spans_kept": len(t.spans),
		"spans_dropped": t.dropped, "aggregates": aggs}); err != nil {
		//qa:allow errcheck the encode error is returned
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			//qa:allow errcheck the encode error is returned
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		//qa:allow errcheck the flush error is returned
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
