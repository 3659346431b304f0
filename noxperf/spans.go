package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// layers are the trace tracks, one per layer the benchmark calls into; the
// order fixes the Chrome trace thread ids.
var layers = []string{"bench", "harness", "trace", "routing", "network", "check", "fault"}

// span is one timed public call: its layer, name, interval, the span that
// was open when it began, and the job it belongs to (-1 for set-up).
type span struct {
	layer, name string
	start, end  time.Duration // since the tracer's epoch
	parent      int           // index into tracer.spans, -1 for a root
	job         int
}

// tracer keeps spans in memory for the traced run and writes them out once
// at the end. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	job   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), job: -1} }

// begin opens a span as a child of the innermost open one and returns its
// handle for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: time.Since(t.epoch), parent: t.parent(), job: t.job})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// record adds a closed span measured by the caller.
func (t *tracer) record(layer, name string, from, to time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: from.Sub(t.epoch), end: to.Sub(t.epoch), parent: t.parent(), job: t.job})
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part its child spans cover. Children nest
// strictly within their parents and never overlap (jobs run one at a
// time), so subtracting their durations is exact.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.layer] += s.end - s.start
		if s.parent >= 0 {
			self[t.spans[s.parent].layer] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON, one thread track
// per layer, which Perfetto opens and noxtrace -validate accepts.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tid := map[string]int{}
	var events []event
	for i, l := range layers {
		tid[l] = i + 1
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": l}})
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].start < t.spans[order[b]].start })
	for _, i := range order {
		s := t.spans[i]
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: tid[s.layer],
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent, "job": s.job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
