package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/partition"
	"netlistre/internal/simplify"
)

// socNoise is BigSoC's electrical-noise density; the seed picks where.
const socNoise = 0.22

// socOpSeconds is the nominal cost of one SoC flow on a 2-CPU host; with
// --seconds it fixes the number of ops.
const socOpSeconds = 7

// runSoC replays the paper's Section V-C flow on BigSoC: simplify, split
// by the seven core resets, analyze each partition at Workers: 1, merge.
func runSoC(seed int64, secs int, tr *tracer) (*result, error) {
	cores := gen.BigSoCCoreNames()
	noisy := gen.SoC("bigsoc", cores, subSeed(seed, 0), socNoise)
	text, err := verilogText(noisy)
	if err != nil {
		return nil, err
	}
	// Simplification must cancel every noise cell: the simplified noisy
	// SoC has exactly the clean SoC's simplified shape.
	want := simplify.Run(gen.SoC("bigsoc", cores, 0, 0)).Netlist.Stats()
	resetNames := make([]string, len(cores))
	for i, c := range cores {
		resetNames[i] = "rst_" + c
	}

	ops := int(float64(secs)/socOpSeconds + 0.5)
	if ops < 1 {
		ops = 1
	}
	res := newResult()
	var nls []*netlist.Netlist
	su := parseSetup([]string{text}, tr, &nls)
	if err := su.due(0, ops); err != nil {
		return nil, err
	}
	nl := nls[0]

	var st opStats
	var removed, unowned int
	var firstKey string
	var subs []*netlist.Netlist // one op's partitions
	var ph phase
	peak := startHeapPeak()
	for op := 0; op < ops; op++ {
		if err := su.due(op, ops); err != nil {
			return nil, err
		}
		settle()
		peak.release()
		ph.resume()
		start := time.Now()
		opSpan := tr.begin("op", 0, op, 1)
		merged, sr, sum, parts, reps, err := socFlow(nl, resetNames, tr, opSpan, op)
		tr.end(opSpan)
		st.lat = append(st.lat, time.Since(start).Seconds())
		ph.pause()
		peak.hold()

		res.attempted++
		failed := false
		if err != nil {
			res.fail(&failed, "op %d: %v", op, err)
			continue
		}
		if got := sr.Netlist.Stats(); got != want {
			res.fail(&failed, "op %d: simplified SoC %+v, want the clean SoC's %+v", op, got, want)
		}
		for _, p := range parts {
			if p.Degraded {
				res.fail(&failed, "op %d: partition %s degraded", op, p.Name)
			}
		}
		if merged.Degraded {
			res.fail(&failed, "op %d: merged report degraded", op)
		}
		if len(parts) != len(resetNames) {
			res.fail(&failed, "op %d: %d partitions, want %d", op, len(parts), len(resetNames))
		}
		if key := reportKey(merged); op == 0 {
			firstKey = key
		} else if key != firstKey {
			res.fail(&failed, "op %d: merged report differs from op 0 on the same input", op)
		}
		removed += sr.RemovedGates
		unowned += sum.Unowned
		for _, r := range reps {
			st.addAnalysis(r)
		}
		subs = subs[:0]
		for _, r := range reps {
			subs = append(subs, r.Netlist)
		}
		st.addOp(merged, elementsOf(nl))
	}
	res.e2e["peak_heap_mib"] = peak.finish()
	if err := su.due(ops, ops); err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(su.times)
	st.fill(res, &ph)
	res.infof("ops %d, each: simplify, partition by %d resets, %d analyses at workers 1, merge", ops, len(resetNames), len(resetNames))
	if tr != nil {
		n := float64(ops)
		fillStageLayers(res, tr, ops)
		res.layer["netlist.parse_s"] = tr.spanTotal("netlist.parse").Seconds() / setupReps
		res.layer["core.merge_s"] = tr.spanTotal("core.merge").Seconds() / n
		res.layer["simplify.s"] = tr.spanTotal("simplify").Seconds() / n
		res.layer["simplify.removed_gates"] = float64(removed) / n
		res.layer["partition.s"] = tr.spanTotal("partition").Seconds() / n
		res.layer["partition.unowned"] = float64(unowned) / n
		st.fillLayers(res)
		probeCuts(res, subs, 1)
		fillTraceOverhead(res, tr, &ph, ops)
	}
	return res, nil
}

// socFlow is one op: the partitioned analysis of the whole SoC.
func socFlow(nl *netlist.Netlist, resetNames []string, tr *tracer, parent, op int) (
	*core.Report, simplify.Result, partition.Summary, []core.Partial, []*core.Report, error) {
	sp := tr.begin("simplify", parent, op, 1)
	sr := simplify.Run(nl)
	tr.end(sp)

	sp = tr.begin("partition", parent, op, 1)
	resets := make([]netlist.ID, len(resetNames))
	for i, name := range resetNames {
		if resets[i] = sr.Netlist.FindByName(name); resets[i] == netlist.Nil {
			tr.end(sp)
			return nil, sr, partition.Summary{}, nil, nil, fmt.Errorf("no reset input %s after simplify", name)
		}
	}
	sum := partition.ByResets(sr.Netlist, resets)
	subs := make([]*netlist.Netlist, len(sum.Partitions))
	toParent := make([]map[netlist.ID]netlist.ID, len(sum.Partitions))
	for i, p := range sum.Partitions {
		sub, m := partition.Extract(sr.Netlist, p)
		subs[i] = sub
		toParent[i] = make(map[netlist.ID]netlist.ID, len(m))
		for parentID, subID := range m {
			toParent[i][subID] = parentID
		}
	}
	tr.end(sp)

	parts := make([]core.Partial, len(subs))
	reps := make([]*core.Report, len(subs))
	for i, sub := range subs {
		start := time.Now()
		an := tr.begin("core.analyze", parent, op, 1)
		opt := analysisOptions()
		opt.Progress = tr.stageHook(an, op, 1)
		rep := core.Analyze(sub, opt)
		tr.end(an)
		reps[i] = rep
		parts[i] = core.Partial{
			Name:     sum.Partitions[i].Name,
			Modules:  toParentModules(rep.Resolved, toParent[i]),
			Degraded: rep.Degraded,
			Duration: time.Since(start),
		}
	}

	sp = tr.begin("core.merge", parent, op, 1)
	merged := core.MergePartitioned(context.Background(), sr.Netlist, analysisOptions(), parts)
	tr.end(sp)
	return merged, sr, sum, parts, reps, nil
}

// reportKey renders a report canonically: its coverage and each resolved
// module's type, width and sorted elements, in sorted order. Two reports
// have the same key only when they resolve the same modules.
func reportKey(rep *core.Report) string {
	lines := make([]string, 0, len(rep.Resolved))
	for _, m := range rep.Resolved {
		lines = append(lines, fmt.Sprintf("%v/%d/%v", m.Type, m.Width, m.Elements))
	}
	sort.Strings(lines)
	return fmt.Sprintf("coverage %d\n%s", rep.CoverageAfter, strings.Join(lines, "\n"))
}

// toParentModules moves modules from a partition's ID space into the
// parent's; nodes the extraction synthesized (boundary inputs) drop out.
// It is the program's own partition-to-parent remap, remapModules in
// internal/server/fleet.go, which is not exported; keep the two in step:
// empty slices and ports are dropped, ports are set in sorted order and
// attributes are copied.
func toParentModules(mods []*module.Module, toParent map[netlist.ID]netlist.ID) []*module.Module {
	mapIDs := func(ids []netlist.ID) []netlist.ID {
		out := make([]netlist.ID, 0, len(ids))
		for _, id := range ids {
			if p, ok := toParent[id]; ok {
				out = append(out, p)
			}
		}
		return out
	}
	out := make([]*module.Module, 0, len(mods))
	for _, m := range mods {
		nm := &module.Module{Type: m.Type, Name: m.Name, Width: m.Width}
		nm.SetElements(mapIDs(m.Elements))
		for _, s := range m.Slices {
			if mapped := mapIDs(s); len(mapped) > 0 {
				nm.Slices = append(nm.Slices, mapped)
			}
		}
		names := make([]string, 0, len(m.Ports))
		for name := range m.Ports {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if mapped := mapIDs(m.Ports[name]); len(mapped) > 0 {
				nm.SetPort(name, mapped)
			}
		}
		for k, v := range m.Attr {
			nm.SetAttr(k, v)
		}
		out = append(out, nm)
	}
	return out
}
