package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netlistre/internal/core"
)

// tracer records spans around the calls the benchmark makes into each
// layer, plus one span per pipeline stage taken from the public
// Options.Progress events. Spans stay in memory until the run ends. A nil
// *tracer records nothing, which is how the untraced run measures.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	hook   time.Duration // time spent inside the tracer itself
	stages map[string]*stageTotal
}

type span struct {
	ID, Parent, Op, Thread int
	Name                   string
	Start, End             time.Duration
}

// stageTotal sums one pipeline stage over every analysis of the run.
type stageTotal struct {
	dur     time.Duration
	alloc   uint64
	modules int
	runs    int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stages: map[string]*stageTotal{}}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op, thread int) int {
	if t == nil {
		return 0
	}
	enter := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Thread: thread,
		Name: name, Start: enter.Sub(t.t0)})
	t.hook += time.Since(enter)
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	enter := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = enter.Sub(t.t0)
	t.hook += time.Since(enter)
	return s.End - s.Start
}

// stageHook returns an Options.Progress callback that records each
// pipeline stage as a child span of parent. At Workers: 1 the stages run
// one at a time, so a stage's span is its self time and the allocation
// between its start and finish events is its own.
func (t *tracer) stageHook(parent, op, thread int) func(core.StageEvent) {
	if t == nil {
		return nil
	}
	open := map[string]int{}
	allocAt := map[string]uint64{}
	return func(ev core.StageEvent) {
		if !ev.Done {
			open[ev.Stage] = t.begin(ev.Stage, parent, op, thread)
			enter := time.Now()
			allocAt[ev.Stage] = allocBytes()
			t.addHook(time.Since(enter))
			return
		}
		enter := time.Now()
		alloc := allocBytes() - allocAt[ev.Stage]
		t.addHook(time.Since(enter))
		d := t.end(open[ev.Stage])
		t.addStage(ev.Stage, d, alloc, ev.Modules, ev.Status != core.StageOK)
	}
}

func (t *tracer) addHook(d time.Duration) {
	t.mu.Lock()
	t.hook += d
	t.mu.Unlock()
}

// degradedStage counts non-OK stages under a pseudo-stage, so one map
// carries every per-stage figure.
const degradedStage = "<degraded>"

func (t *tracer) addStage(name string, d time.Duration, alloc uint64, modules int, degraded bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stages[name]
	if st == nil {
		st = &stageTotal{}
		t.stages[name] = st
	}
	st.dur += d
	st.alloc += alloc
	st.modules += modules
	st.runs++
	if degraded {
		if t.stages[degradedStage] == nil {
			t.stages[degradedStage] = &stageTotal{}
		}
		t.stages[degradedStage].runs++
	}
}

func (t *tracer) stage(name string) stageTotal {
	if st := t.stages[name]; st != nil {
		return *st
	}
	return stageTotal{}
}

// spanTotal sums the durations of every span with the given name.
func (t *tracer) spanTotal(name string) time.Duration {
	var d time.Duration
	if t == nil {
		return 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// stageSum sums every stage span whose parent is a span with the given
// name: the part of those spans the pipeline stages account for.
func (t *tracer) stageSum(parentName string) time.Duration {
	parents := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == parentName {
			parents[s.ID] = true
		}
	}
	var d time.Duration
	for _, s := range t.spans {
		if parents[s.Parent] {
			d += s.End - s.Start
		}
	}
	return d
}

// write stores the spans as Chrome trace-event JSON (one complete event
// per span), which chrome://tracing and ui.perfetto.dev open directly.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Thread,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}
