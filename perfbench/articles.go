package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle"
	"netlistre/internal/oracle/mutate"
	"netlistre/internal/rtl"
)

// baselinePath is the conformance baseline the article workloads gate
// macro F1 on. The benchmark reads it and never writes it.
const baselinePath = "testdata/conformance_baseline.json"

// design is one generated input. The program only ever sees text; src and
// lab stay on the benchmark's side to map ground truth onto the parse.
type design struct {
	name string
	text string
	src  *netlist.Netlist
	lab  *gen.Labels
}

// subSeed derives the seed of item i from the run seed, kept non-negative
// because the rename mutation writes it into Verilog identifiers.
func subSeed(seed int64, i int) int64 { return (seed&0x7fffffff)*100000 + int64(i) }

// mutatedArticles builds each labeled article, reorders and renames it
// through the metamorphic mutations (both keep every quality score), and
// serializes it to structural Verilog. variant selects one of the seed's
// independent sets of mutations.
func mutatedArticles(names []string, seed int64, variant int) ([]*design, error) {
	reorder, err := mutate.Named("reorder")
	if err != nil {
		return nil, err
	}
	rename, err := mutate.Named("rename")
	if err != nil {
		return nil, err
	}
	var out []*design
	for i, name := range names {
		nl, lab, err := gen.LabeledArticle(name)
		if err != nil {
			return nil, err
		}
		s := subSeed(seed, variant*len(names)+i)
		m, err := reorder.Apply(nl, lab, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if m, err = rename.Apply(m.Netlist, m.Labels, s); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		nameOutputDrivers(m.Netlist)
		text, err := verilogText(m.Netlist)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, &design{name: name, text: text, src: m.Netlist, lab: m.Labels})
	}
	return out, nil
}

// nameOutputDrivers names each gate or latch that drives exactly one
// primary output after that output. The writer then declares the port on
// the driver itself instead of emitting an assign, which the reader would
// turn into an extra buffer: without it the text is a different circuit
// from the one the conformance baseline was recorded on (a buffer between
// a parity tree and its output hides the tree from the analysis).
func nameOutputDrivers(nl *netlist.Netlist) {
	ports := map[netlist.ID]int{}
	for _, p := range nl.Outputs() {
		ports[p.Driver]++
	}
	for _, p := range nl.Outputs() {
		switch nl.Kind(p.Driver) {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		if ports[p.Driver] == 1 && nl.FindByName(p.Name) == netlist.Nil {
			nl.SetName(p.Driver, p.Name)
		}
	}
}

func verilogText(nl *netlist.Netlist) (string, error) {
	var buf bytes.Buffer
	if err := nl.WriteVerilog(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func parseValidate(text string) (*netlist.Netlist, error) {
	nl, err := netlist.ReadVerilog(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return nl, nl.Validate()
}

// parseAll parses and validates every text: one set-up repetition.
func parseAll(texts []string, tr *tracer) ([]*netlist.Netlist, error) {
	nls := make([]*netlist.Netlist, 0, len(texts))
	for i, text := range texts {
		sp := tr.begin("netlist.parse", 0, -1-i, 1)
		nl, err := parseValidate(text)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("parse of input %d: %w", i, err)
		}
		nls = append(nls, nl)
	}
	return nls, nil
}

// parseSetup is the batch workloads' set-up: parse and validate every
// text. The ops analyze the first repetition's parses.
func parseSetup(texts []string, tr *tracer, nls *[]*netlist.Netlist) *setupRuns {
	return &setupRuns{once: func() error {
		parsed, err := parseAll(texts, tr)
		if *nls == nil {
			*nls = parsed
		}
		return err
	}}
}

func elementsOf(nl *netlist.Netlist) int {
	st := nl.Stats()
	return st.Gates + st.Latches
}

// labelsOn maps ground truth from the generated netlist onto its parse by
// net name: the writer names every node, so names survive the text.
func labelsOn(d *design, parsed *netlist.Netlist) (*gen.Labels, error) {
	var missing error
	lab := d.lab.Remap(func(id netlist.ID) []netlist.ID {
		nid := parsed.FindByName(d.src.NameOf(id))
		if nid == netlist.Nil {
			if missing == nil {
				missing = fmt.Errorf("%s: node %s lost in the text", d.name, d.src.NameOf(id))
			}
			return nil
		}
		return []netlist.ID{nid}
	})
	return lab, missing
}

func baselineF1() (map[string]float64, error) {
	f, err := os.Open(baselinePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results, err := oracle.ReadResults(f)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range results {
		out[r.Design] = r.MacroF1
	}
	return out, nil
}

func analysisOptions() core.Options {
	opt := core.Options{Workers: 1}
	opt.Overlap.Sliceable = true // the revan and revcheck default
	return opt
}

// passSeconds is the nominal cost of one pass over each article set on a
// 2-CPU host; the number of passes is fixed by --seconds alone, never by
// elapsed time, so every run replays the same list.
var passSeconds = map[string]float64{"articles-gate": 10, "articles-lut": 13}

func runArticlesGate(seed int64, secs int, tr *tracer) (*result, error) {
	names := append(gen.ArticleNames(), "oc8051-trojan", "evoter-trojan")
	return runArticles("articles-gate", names, seed, secs, tr)
}

func runArticlesLUT(seed int64, secs int, tr *tracer) (*result, error) {
	var names []string
	for _, n := range gen.ArticleNames() {
		names = append(names, n+"-lut")
	}
	return runArticles("articles-lut", names, seed, secs, tr)
}

func passes(workload string, secs int) int {
	n := int(float64(secs)/passSeconds[workload] + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// opStats collects the per-op figures every batch workload reports.
type opStats struct {
	lat      []float64
	elems    int
	covered  int
	total    int
	residual int
	optimal  int
	analyses int
	selected int
	all      int
	words    int
	seeds    int
}

// runArticles replays the work list: every pass analyzes each design once,
// and each pass gets its own reordering and renaming of every design, so
// one run averages over several node orders.
func runArticles(workload string, names []string, seed int64, secs int, tr *tracer) (*result, error) {
	var designs []*design
	for p := 0; p < passes(workload, secs); p++ {
		ds, err := mutatedArticles(names, seed, p)
		if err != nil {
			return nil, err
		}
		designs = append(designs, ds...)
	}
	base, err := baselineF1()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", baselinePath, err)
	}
	for _, d := range designs {
		if _, ok := base[d.lab.Design]; !ok {
			return nil, fmt.Errorf("%s has no entry in %s", d.lab.Design, baselinePath)
		}
	}
	texts := make([]string, len(designs))
	for i, d := range designs {
		texts[i] = d.text
	}

	res := newResult()
	var nls []*netlist.Netlist
	ops := len(texts)
	su := parseSetup(texts, tr, &nls)
	if err := su.due(0, ops); err != nil {
		return nil, err
	}
	labs := make([]*gen.Labels, len(designs))
	for i, d := range designs {
		if labs[i], err = labelsOn(d, nls[i]); err != nil {
			return nil, err
		}
	}

	var st opStats
	f1 := map[string]float64{}
	var ph phase
	peak := startHeapPeak()
	for op, nl := range nls {
		// Between ops, outside every figure: set-up repetitions that are
		// due, then a full collection, so every op starts from a clean heap.
		if err := su.due(op, ops); err != nil {
			return nil, err
		}
		settle()
		peak.release()
		ph.resume()
		opt := analysisOptions()
		start := time.Now()
		opSpan := tr.begin("op", 0, op, 1)
		an := tr.begin("core.analyze", opSpan, op, 1)
		opt.Progress = tr.stageHook(an, op, 1)
		rep := core.Analyze(nl, opt)
		tr.end(an)
		sp := tr.begin("rtl.emit", opSpan, op, 1)
		er, emitErr := rtl.Emit(nl, rep)
		tr.end(sp)
		var eq *rtl.EquivResult
		var checkErr error
		if emitErr == nil {
			sp = tr.begin("rtl.check", opSpan, op, 1)
			eq, checkErr = rtl.Check(nl, er)
			tr.end(sp)
		}
		tr.end(opSpan)
		st.lat = append(st.lat, time.Since(start).Seconds())
		ph.pause()
		peak.hold()

		res.attempted++
		failed := false
		name := designs[op].name
		if rep.Degraded {
			res.fail(&failed, "%s: degraded report", name)
		}
		switch {
		case emitErr != nil:
			res.fail(&failed, "%s: rtl.Emit: %v", name, emitErr)
		case checkErr != nil:
			res.fail(&failed, "%s: rtl.Check: %v", name, checkErr)
		case !eq.Equivalent:
			res.fail(&failed, "%s: decompiled design not equivalent: %v", name, eq)
		default:
			st.residual += er.Stats.ResidualGates + er.Stats.ResidualLatches
		}
		score := oracle.Score(rep, labs[op], oracle.Options{})
		if want := base[labs[op].Design]; score.MacroF1 < want-1e-9 {
			res.fail(&failed, "%s: macro F1 %.4f below baseline %.4f", name, score.MacroF1, want)
		}
		f1[labs[op].Design] = score.MacroF1
		st.addAnalysis(rep)
		st.addOp(rep, elementsOf(nl))
	}
	res.e2e["peak_heap_mib"] = peak.finish()
	if err := su.due(ops, ops); err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(su.times)

	st.fill(res, &ph)
	var f1s []float64
	for _, v := range f1 {
		f1s = append(f1s, v)
	}
	res.infof("ops %d (%d passes over %d designs), workers 1", ops, ops/len(names), len(names))
	res.infof("macro_f1 %.4f (mean over designs; each is checked against its baseline)", mean(f1s))
	res.infof("residual_elems %d (residual gates plus latches per pass)", st.residual*len(names)/ops)
	if tr != nil {
		fillStageLayers(res, tr, ops)
		res.layer["netlist.parse_s"] = tr.spanTotal("netlist.parse").Seconds() / float64(setupReps*len(texts))
		res.layer["rtl.emit_s"] = tr.spanTotal("rtl.emit").Seconds() / float64(ops)
		res.layer["rtl.check_s"] = tr.spanTotal("rtl.check").Seconds() / float64(ops)
		res.layer["rtl.residual"] = float64(st.residual) / float64(ops)
		st.fillLayers(res)
		probeCuts(res, nls, ops)
		fillTraceOverhead(res, tr, &ph, ops)
	}
	return res, nil
}

// addOp counts one op's result: the report the op ends with and the
// elements of the netlist it was given.
func (st *opStats) addOp(rep *core.Report, elems int) {
	st.elems += elems
	st.covered += rep.CoverageAfter
	st.total += rep.TotalElements
}

// addAnalysis counts one Analyze call's report for the layer ratios.
func (st *opStats) addAnalysis(rep *core.Report) {
	st.analyses++
	if rep.OverlapOptimal {
		st.optimal++
	}
	st.selected += len(rep.Resolved)
	st.all += len(rep.All)
	st.words += len(rep.Words)
	for _, w := range rep.Words {
		if !strings.HasPrefix(w.Origin, "propagated") {
			st.seeds++
		}
	}
}

// fill sets the end-to-end metrics every batch workload shares.
func (st *opStats) fill(res *result, ph *phase) {
	ops := float64(len(st.lat))
	res.infof("timed phase %.3f s wall, %.3f s CPU", ph.wall.Seconds(), ph.cpu.Seconds())
	res.e2e["elems_per_s"] = float64(st.elems) / ph.wall.Seconds()
	res.e2e["cpu_s_per_op"] = ph.cpu.Seconds() / ops
	res.e2e["alloc_mib_per_op"] = mib(ph.alloc) / ops
	res.e2e["coverage_frac"] = float64(st.covered) / float64(st.total)
	res.infof("op_p50_s %.4f (%d ops)", p50(st.lat), len(st.lat))
	if v, p, ok := tail(st.lat); ok {
		res.infof("op_tail_s %.4f (p%g of %d ops)", v, p, len(st.lat))
	} else {
		res.infof("op_tail_s not reported: %d ops leave fewer than ten beyond p90", len(st.lat))
	}
}

// fillLayers sets the per-layer ratios read off the reports.
func (st *opStats) fillLayers(res *result) {
	res.layer["overlap.selected_ratio"] = float64(st.selected) / float64(st.all)
	res.layer["overlap.optimal_frac"] = float64(st.optimal) / float64(st.analyses)
	res.layer["words.yield"] = float64(st.words) / float64(st.seeds)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
