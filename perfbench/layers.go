package main

import (
	"time"

	"netlistre/internal/bitslice"
	"netlistre/internal/cuts"
	"netlistre/internal/netlist"
)

// stageLayers maps each pipeline stage onto the per-layer metrics its
// span and produced-item count feed. The stage names are the scheduler's.
var stageLayers = []struct {
	stage, secs, alloc, count string
}{
	{"bitslice", "bitslice.s", "bitslice.alloc_mib", ""},
	{"support", "support.s", "", "support.modules"},
	{"aggregate", "aggregate.s", "", ""},
	{"fuse", "aggregate.fuse_s", "", ""},
	{"words", "words.s", "words.alloc_mib", "words.count"},
	{"modmatch", "modmatch.s", "", "modmatch.modules"},
	{"lcg", "graph.lcg_s", "", ""},
	{"counters", "seq.counters_s", "", "seq.counters"},
	{"shift", "seq.shift_s", "", ""},
	{"rams", "seq.rams_s", "", ""},
	{"registers", "seq.registers_s", "", ""},
	{"order", "seq.order_s", "", ""},
	{"overlap", "overlap.s", "", ""},
}

// fillStageLayers turns the stage totals into per-op layer metrics and,
// where the benchmark itself timed the analyze calls, splits the analyze
// span into stage self time and scheduler overhead.
func fillStageLayers(res *result, tr *tracer, ops int) {
	n := float64(ops)
	for _, m := range stageLayers {
		st := tr.stage(m.stage)
		res.layer[m.secs] = st.dur.Seconds() / n
		if m.alloc != "" {
			res.layer[m.alloc] = mib(st.alloc) / n
		}
		if m.count != "" {
			res.layer[m.count] = float64(st.modules) / n
		}
	}
	res.layer["core.degraded_stages"] = float64(tr.stage(degradedStage).runs) / n
	analyze := tr.spanTotal("core.analyze")
	if analyze == 0 {
		return
	}
	stages := tr.stageSum("core.analyze")
	res.layer["core.analyze_s"] = analyze.Seconds() / n
	res.layer["core.overhead_s"] = (analyze - stages).Seconds() / n
	res.infof("stage spans %.4f s + core.overhead_s %.4f s = core.analyze_s %.4f s per op",
		stages.Seconds()/n, (analyze-stages).Seconds()/n, analyze.Seconds()/n)
}

// probeCuts measures the cut and match counts of the bitslice layer by
// calling it directly on each given input after the timed phase (the
// analysis reports neither count) and sets the per-op cut count and the
// match ratio. The inputs are what ops analyses of the run analyzed.
func probeCuts(res *result, nls []*netlist.Netlist, ops int) {
	var cutCount, matches int
	for _, nl := range nls {
		for _, set := range cuts.Enumerate(nl, cuts.Options{}) {
			cutCount += len(set)
		}
		for _, ms := range bitslice.Find(nl, bitslice.Options{Workers: 1}).ByRoot {
			matches += len(ms)
		}
	}
	res.layer["cuts.count"] = float64(cutCount) / float64(ops)
	res.layer["bitslice.match_ratio"] = float64(matches) / float64(cutCount)
}

// fillTraceOverhead reports the runtime counters of the timed phase and
// what tracing cost: the traced run's CPU per op (compare it with the
// untraced run's cpu_s_per_op) and the share of the phase's wall time
// spent inside the tracer.
func fillTraceOverhead(res *result, tr *tracer, ph *phase, ops int) {
	n := float64(ops)
	res.layer["runtime.gc_cpu_s"] = ph.gcCPU / n
	res.layer["runtime.gc_cycles"] = float64(ph.gcCyc) / n
	res.layer["trace.cpu_s_per_op"] = ph.cpu.Seconds() / n
	tr.mu.Lock()
	hook := tr.hook
	tr.mu.Unlock()
	res.layer["trace.overhead_frac"] = hook.Seconds() / ph.wall.Seconds()
	res.infof("tracer time %v of %v timed wall", hook.Round(time.Microsecond), ph.wall.Round(time.Millisecond))
}
