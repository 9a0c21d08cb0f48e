// Command perfbench is the repository's benchmark. It replays one of four
// seeded, fixed work lists through the program's public functions, checks
// every output, and prints every end-to-end metric by name and unit; with
// --trace 1 it instead records spans around each layer call and prints the
// per-layer metrics. See NOTES.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload articles-gate --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any wrong output makes the
// command exit nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0. Only
// steady quantities that exist on all four workloads are here; the
// latency classes (op, hit and query medians and tails), macro F1 and
// residual elements are printed above the JSON line. NOTES.md gives the
// measured spread that kept op_p50_s out.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"elems_per_s", "elem/s"},
	{"cpu_s_per_op", "s"},
	{"peak_heap_mib", "MiB"},
	{"alloc_mib_per_op", "MiB"},
	{"coverage_frac", "frac"},
}

// perLayer lists the metrics of the traced run. A layer the workload does
// not reach reports 0. Times and counts are per op unless the name says
// otherwise; server latencies are client-side medians.
var perLayer = []metricDef{
	{"netlist.parse_s", "s"},
	{"netlist.fingerprint_s", "s"},
	{"netlist.cone_ms", "ms"},
	{"netlist.diff_ms", "ms"},
	{"core.analyze_s", "s"},
	{"core.overhead_s", "s"},
	{"core.merge_s", "s"},
	{"core.degraded_stages", "count"},
	{"bitslice.s", "s"},
	{"bitslice.alloc_mib", "MiB"},
	{"cuts.count", "count"},
	{"bitslice.match_ratio", "ratio"},
	{"support.s", "s"},
	{"support.modules", "count"},
	{"aggregate.s", "s"},
	{"aggregate.fuse_s", "s"},
	{"words.s", "s"},
	{"words.alloc_mib", "MiB"},
	{"words.count", "count"},
	{"words.yield", "ratio"},
	{"modmatch.s", "s"},
	{"modmatch.modules", "count"},
	{"graph.lcg_s", "s"},
	{"seq.counters_s", "s"},
	{"seq.shift_s", "s"},
	{"seq.rams_s", "s"},
	{"seq.registers_s", "s"},
	{"seq.order_s", "s"},
	{"seq.counters", "count"},
	{"overlap.s", "s"},
	{"overlap.selected_ratio", "ratio"},
	{"overlap.optimal_frac", "frac"},
	{"simplify.s", "s"},
	{"simplify.removed_gates", "count"},
	{"partition.s", "s"},
	{"partition.unowned", "count"},
	{"rtl.emit_s", "s"},
	{"rtl.check_s", "s"},
	{"rtl.residual", "count"},
	{"server.analyze_ms", "ms"},
	{"server.analyze_hit_ms", "ms"},
	{"server.rerun_ms", "ms"},
	{"server.blocks_ms", "ms"},
	{"server.cone_ms", "ms"},
	{"server.diff_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.stagecache_hit_ratio", "ratio"},
	{"server.cache_evictions", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"trace.cpu_s_per_op", "s"},
	{"trace.overhead_frac", "frac"},
}

// result is what one workload run produces.
type result struct {
	attempted int
	failures  []string // one line per failed op or check
	failedOps int
	e2e       map[string]float64
	layer     map[string]float64
	info      []string // human-readable lines printed above the JSON
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a wrong output. Each op counts at most once toward failed.
func (r *result) fail(opFailed *bool, format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	if opFailed != nil && !*opFailed {
		*opFailed = true
		r.failedOps++
	}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(seed int64, secs int, tr *tracer) (*result, error)
}

var workloads = []workload{
	{"articles-gate", runArticlesGate},
	{"articles-lut", runArticlesLUT},
	{"soc-scale", runSoC},
	{"service-mix", runService},
}

func main() {
	name := flag.String("workload", "", "workload to run: articles-gate, articles-lut, soc-scale or service-mix")
	seed := flag.Int64("seed", 1, "seed the work list is generated from")
	secs := flag.Int("seconds", 20, "nominal length of the timed phase; sets the size of the fixed work list")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and prints the per-layer metrics instead")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seconds >= 1 --trace 0|1")
		flag.Usage()
		os.Exit(2)
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	res, err := wl.run(*seed, *secs, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}

	defs, values := endToEnd, res.e2e
	if tr != nil {
		defs, values = perLayer, res.layer
		for _, d := range perLayer {
			if _, ok := values[d.name]; !ok {
				values[d.name] = 0 // a layer this workload does not reach
			}
		}
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", wl.name, *seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		res.infof("span file: %s (%d spans)", path, len(tr.spans))
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", wl.name, *seed, *secs, *traceFlag)
	for _, line := range res.info {
		fmt.Println("  " + line)
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not produce metric %s\n", wl.name, d.name)
			os.Exit(1)
		}
		fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, name := range extraKeys(values, defs) {
		fmt.Fprintf(os.Stderr, "perfbench: %s produced unlisted metric %s\n", wl.name, name)
		os.Exit(1)
	}
	failed := res.failedOps
	fmt.Printf("  %-28s %14.6g (%d of %d ops)\n", "fail_frac", float64(failed)/float64(res.attempted), failed, res.attempted)
	for _, f := range res.failures {
		fmt.Println("  FAIL: " + f)
	}
	correct := len(res.failures) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func extraKeys(values map[string]float64, defs []metricDef) []string {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var extra []string
	for k := range values {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}
