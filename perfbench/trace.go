package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call. Spans of one op share Op; Parent indexes the
// enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans and counters in memory; write saves them at exit. A
// nil *tracer records nothing, so replays run untraced through the same
// code.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// rename names a span after the fact, e.g. a watch tick by the mode it ran in.
func (t *tracer) rename(i int, name string) {
	if t != nil {
		t.spans[i].Name = name
	}
}

// timed runs fn as a span named name under parent.
func (t *tracer) timed(name string, parent int, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(name, parent, t.spans[parent].Op)
	fn()
	t.end(i)
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// layerTime is a layer's summed self time and its number of calls.
type layerTime struct {
	ms    float64
	calls int
}

// selfTimes sums each span name's self time: its duration minus the part its
// children cover. Children of one span never overlap (replays are
// sequential), so their durations add.
func (t *tracer) selfTimes() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.ms += float64(s.End-s.Start-child[i]) / 1e6
		lt.calls++
		out[s.Name] = lt
	}
	return out
}

// layerMS is the time each op spent in replayed layers (root replay spans'
// children), by op.
func (t *tracer) layerMS() map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == "replay" {
			out[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
