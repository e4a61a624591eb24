package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the index of the enclosing span, or -1 for an op's root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bare marks an op span recorded without its layer spans.
	Bare bool `json:"bare,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends. It
// records spans nested at most limit deep. A mixing tracer records a
// random half of the ops with their layer spans and the rest bare, so the
// cost of the layer spans is measured on ops that share the machine's
// state; the choice is random so it cannot line up with a periodic op
// pattern (edit's every-tenth path query).
type tracer struct {
	limit   int
	mix     *rand.Rand
	opLimit int
	depth   int
	t0      time.Time
	spans   []span
}

// Span depth limits.
const (
	noSpans  = 0
	opSpans  = 1
	allSpans = 1 << 30
)

func newTracer(limit int) *tracer { return &tracer{limit: limit, t0: time.Now()} }

// do runs fn inside a span named name. fn receives the span's index (-1
// when it is not recorded) so nested calls can name it as their parent.
func (t *tracer) do(op, parent int, name string, fn func(self int)) {
	t.depth++
	limit := t.limit
	if t.mix != nil {
		if t.depth == 1 {
			t.opLimit = opSpans
			if t.mix.Intn(2) == 0 {
				t.opLimit = allSpans
			}
		}
		limit = t.opLimit
	}
	if t.depth > limit {
		fn(-1)
		t.depth--
		return
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0)), Bare: limit == opSpans})
	fn(i)
	t.spans[i].End = int64(time.Since(t.t0))
	t.depth--
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// durations lists every span's duration by name.
func (t *tracer) durations() map[string][]time.Duration {
	m := map[string][]time.Duration{}
	for _, s := range t.spans {
		m[s.Name] = append(m[s.Name], s.dur())
	}
	return m
}

// overhead compares a mixing tracer's op spans recorded with and
// without layer spans: the ratio of their median times, per op name and
// weighted by op count, minus one.
func (t *tracer) overhead() float64 {
	with, without := map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range t.spans {
		switch {
		case s.Parent >= 0:
		case s.Bare:
			without[s.Name] = append(without[s.Name], s.dur())
		default:
			with[s.Name] = append(with[s.Name], s.dur())
		}
	}
	var w, wo float64
	for name, ds := range without {
		n := float64(len(ds) + len(with[name]))
		w += n * float64(median(with[name]))
		wo += n * float64(median(ds))
	}
	return w/wo - 1
}

// childTime sums the durations of every span whose parent is named
// parent: the time the layers under it account for.
func (t *tracer) childTime(parent string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			d += s.dur()
		}
	}
	return d
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover. Children of one span never overlap (the
// replay is single-threaded), so the covered part is their sum.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	m := map[string]time.Duration{}
	for i, s := range t.spans {
		m[s.Name] += s.dur() - child[i]
	}
	return m
}

// layerSelf is the self-time table written with the spans.
type layerSelf struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) selfTable() []layerSelf {
	counts := map[string]int{}
	for _, s := range t.spans {
		counts[s.Name]++
	}
	var out []layerSelf
	for name, d := range t.selfTimes() {
		out = append(out, layerSelf{Name: name, Spans: counts[name], SelfMS: ms(d)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func (t *tracer) write(path string, header any) error {
	b, err := json.Marshal(map[string]any{"provenance": header, "self": t.selfTable(), "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
