package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The tracer records spans around the public calls the benchmark makes
// into each layer. Spans live in memory and are written out when the
// run ends, so tracing adds no I/O to the measured phase. A nil *tracer
// records nothing: untraced runs share the traced code paths.

// span is one timed call. Parent 0 marks a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Run     string `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// aggregate stands for many short calls made inside one parent span,
// summed by the caller instead of recorded one by one (a span per IP
// baseline query would cost more than the query).
type aggregate struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
	aggs  []aggregate
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, StartNS: now, EndNS: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// addAggregate records count calls totalling d under parent.
func (t *tracer) addAggregate(name string, parent int, count int64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.aggs = append(t.aggs, aggregate{Name: name, Parent: parent, Run: t.run, Count: count, TotalNS: d.Nanoseconds()})
	t.mu.Unlock()
}

// total sums the durations of every span and aggregate named name, and
// counts the calls they stand for.
func (t *tracer) total(name string) (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns, n int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
			n++
		}
	}
	for _, a := range t.aggs {
		if a.Name == name {
			ns += a.TotalNS
			n += a.Count
		}
	}
	return time.Duration(ns), n
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover and minus its aggregates.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	aggNS := make(map[int]int64)
	out := make(map[string]time.Duration)
	for _, a := range t.aggs {
		aggNS[a.Parent] += a.TotalNS
		out[a.Name] += time.Duration(a.TotalNS)
	}
	for _, s := range t.spans {
		self := s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS) - aggNS[s.ID]
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
// Children of one parent may overlap when they run on different
// goroutines.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the trace as JSON: spans, aggregates and self time per
// span name in nanoseconds.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	selfNS := make(map[string]int64, len(self))
	for k, v := range self {
		selfNS[k] = v.Nanoseconds()
	}
	t.mu.Lock()
	doc := struct {
		Run        string           `json:"run"`
		Spans      []span           `json:"spans"`
		Aggregates []aggregate      `json:"aggregates"`
		SelfNS     map[string]int64 `json:"self_ns"`
	}{t.run, t.spans, t.aggs, selfNS}
	buf, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
