// Package overlap implements Section IV of the paper: selecting a
// non-overlapping subset of inferred modules with a 0-1 integer linear
// program. Both the basic formulation (one binary per module) and the
// sliceable formulation (per-slice binaries with linking and MinSlices
// constraints, Section IV-B) are provided, each with two objectives:
// maximize coverage, or minimize the number of output modules subject to a
// coverage target.
package overlap

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"netlistre/internal/ilp"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// Objective selects the optimization target.
type Objective int

// Objectives.
const (
	// MaxCoverage maximizes the number of covered elements (IV-A.3).
	MaxCoverage Objective = iota
	// MinModules minimizes the number of selected modules subject to
	// covering at least CoverageTarget elements (IV-A.4).
	MinModules
)

// Options configures resolution.
type Options struct {
	Objective Objective
	// CoverageTarget is the element floor for MinModules.
	CoverageTarget int
	// Sliceable enables the per-slice formulation of Section IV-B.
	Sliceable bool
	// MinSlices is the smallest number of slices a selected sliceable
	// module must keep (the paper uses 2).
	MinSlices int
	// NodeLimit caps the branch-and-bound search per component (0 =
	// defaultNodeLimit). When the limit is hit the best incumbent is used
	// and Result.Optimal is false.
	NodeLimit int64
	// Interrupt, when non-nil, is polled inside the ILP searches; when it
	// returns true each remaining search stops at its best incumbent and
	// Result.Optimal is false (the selection stays feasible and
	// non-overlapping).
	Interrupt func() bool
}

// defaultNodeLimit bounds per-component search time. Most components solve
// to proven optimality well under it. Five of the ten gate-level articles
// (mips16, riscfpu, router, oc8051, aemb) each have one dense
// RAM-vs-decomposition component that stops at the limit, so there the
// stage costs this many nodes. On each of them the incumbent does not
// improve between 200k and 5M nodes, so a larger limit only costs time.
// The incumbent is not always optimal, though: a stronger (split-weight)
// clique bound finds better optima on riscfpu and router-lut.
// Result.Optimal reports the distinction.
const defaultNodeLimit = 200_000

// Result reports the selection.
type Result struct {
	// Selected holds the chosen modules. Sliceable modules may be
	// rebuilt with a subset of their slices.
	Selected []*module.Module
	// Coverage is the number of elements covered by Selected.
	Coverage int
	// Optimal is false when the solver hit its node limit.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes over every ILP solved,
	// including the basic-formulation warm starts of sliceable searches.
	Nodes int64
}

// Resolve selects a non-overlapping subset of mods.
//
// For MaxCoverage the problem decomposes exactly: modules overlapping no
// other module are always selected, and overlap-connected components are
// independent sub-problems, each solved with its own (much smaller) ILP.
// MinModules couples everything through the global coverage floor and is
// solved as one program.
func Resolve(mods []*module.Module, opt Options) (Result, error) {
	if opt.MinSlices <= 0 {
		opt.MinSlices = 2
	}
	if opt.NodeLimit == 0 {
		opt.NodeLimit = defaultNodeLimit
	}
	if opt.Objective == MinModules {
		b := newBuilder(mods, opt)
		sol, err := ilp.Solve(b.problem, ilp.Options{NodeLimit: opt.NodeLimit, Interrupt: opt.Interrupt})
		if err != nil {
			return Result{}, fmt.Errorf("overlap: %w", err)
		}
		return b.extract(sol), nil
	}

	// Union-find over modules sharing elements.
	parent := make([]int, len(mods))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	owner := make(map[netlist.ID]int)
	for i, m := range mods {
		for _, g := range m.Elements {
			if j, ok := owner[g]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[g] = i
			}
		}
	}

	var res Result
	res.Optimal = true
	comps := make(map[int][]int)
	for i := range mods {
		comps[find(i)] = append(comps[find(i)], i)
	}
	// Singleton components are isolated modules: always selected under
	// MaxCoverage. Collect then sort by module index: map iteration order
	// must not leak into the selection order (the report is promised to
	// be byte-identical across runs and worker counts).
	var singles []int
	for r, members := range comps {
		if len(members) == 1 {
			singles = append(singles, members[0])
			delete(comps, r)
		}
	}
	slices.Sort(singles)
	for _, i := range singles {
		res.Selected = append(res.Selected, mods[i])
	}
	var reps []int
	for r := range comps {
		reps = append(reps, r)
	}
	slices.Sort(reps)
	for _, r := range reps {
		sub := make([]*module.Module, len(comps[r]))
		for k, i := range comps[r] {
			sub[k] = mods[i]
		}
		b := newBuilder(sub, opt)
		ilpOpt := ilp.Options{NodeLimit: opt.NodeLimit, Interrupt: opt.Interrupt}
		if opt.Sliceable {
			// Warm start the sliceable search with the basic formulation's
			// optimum: a whole-module selection is always feasible at slice
			// granularity, and the strong incumbent prunes most of the
			// slice-rearrangement space.
			basicOpt := opt
			basicOpt.Sliceable = false
			bb := newBuilder(sub, basicOpt)
			bsol, err := ilp.Solve(bb.problem, ilp.Options{NodeLimit: opt.NodeLimit / 4, Interrupt: opt.Interrupt})
			res.Nodes += bsol.Nodes
			if err == nil {
				inc := make([]bool, b.problem.NumVars)
				for i := range sub {
					if !bsol.Values[bb.varOfMod[i]] {
						continue
					}
					inc[b.varOfMod[i]] = true
					for _, sv := range b.sliceVars[i] {
						inc[sv] = true
					}
				}
				ilpOpt.Incumbent = inc
			}
		}
		sol, err := ilp.Solve(b.problem, ilpOpt)
		if err != nil {
			return Result{}, fmt.Errorf("overlap: %w", err)
		}
		part := b.extract(sol)
		res.Selected = append(res.Selected, part.Selected...)
		res.Optimal = res.Optimal && part.Optimal
		res.Nodes += part.Nodes
	}
	res.Coverage = module.CoverageCount(res.Selected)
	return res, nil
}

// builder translates modules into an ILP.
type builder struct {
	mods    []*module.Module
	opt     Options
	problem *ilp.Problem

	// Per-module variable layout.
	varOfMod  []int   // x_i for unsliceable modules, x_{i0} for sliceable
	sliceVars [][]int // x_{ij} per slice, nil for unsliceable
	// varFor(g, i) resolution table: for each module, element -> variable.
	elemVar []map[netlist.ID]int
	size    []int64 // Size(x) per variable
}

func newBuilder(mods []*module.Module, opt Options) *builder {
	b := &builder{mods: mods, opt: opt, problem: &ilp.Problem{}}
	b.varOfMod = make([]int, len(mods))
	b.sliceVars = make([][]int, len(mods))
	b.elemVar = make([]map[netlist.ID]int, len(mods))

	newVar := func() int {
		v := b.problem.NumVars
		b.problem.NumVars++
		b.size = append(b.size, 0)
		return v
	}

	for i, m := range mods {
		b.elemVar[i] = make(map[netlist.ID]int, len(m.Elements))
		if !opt.Sliceable || !m.Sliceable() {
			x := newVar()
			b.varOfMod[i] = x
			for _, g := range m.Elements {
				b.elemVar[i][g] = x
			}
			continue
		}
		// Sliceable: x_{i0} plus one variable per slice. Elements in
		// exactly one slice map to that slice's variable; everything else
		// (shared or unassigned) maps to x_{i0}.
		x0 := newVar()
		b.varOfMod[i] = x0
		owner := make(map[netlist.ID]int, len(m.Elements)) // -1 = shared
		for si, s := range m.Slices {
			for _, g := range s {
				if prev, ok := owner[g]; ok && prev != si {
					owner[g] = -1
				} else {
					owner[g] = si
				}
			}
		}
		svars := make([]int, len(m.Slices))
		for si := range m.Slices {
			svars[si] = newVar()
		}
		b.sliceVars[i] = svars
		for _, g := range m.Elements {
			si, ok := owner[g]
			if !ok || si == -1 {
				b.elemVar[i][g] = x0
			} else {
				b.elemVar[i][g] = svars[si]
			}
		}
		// Linking: x_{i0} >= x_{ij}.
		for _, sv := range svars {
			b.problem.AddConstraint([]ilp.Term{{Var: x0, Coef: 1}, {Var: sv, Coef: -1}}, ilp.GE, 0)
		}
		// MinSlices: sum_j x_{ij} - MinSlices*x_{i0} >= 0.
		terms := make([]ilp.Term, 0, len(svars)+1)
		for _, sv := range svars {
			terms = append(terms, ilp.Term{Var: sv, Coef: 1})
		}
		minSlices := opt.MinSlices
		if minSlices > len(svars) {
			minSlices = len(svars)
		}
		terms = append(terms, ilp.Term{Var: x0, Coef: -int64(minSlices)})
		b.problem.AddConstraint(terms, ilp.GE, 0)
	}

	// Sizes.
	for i, m := range mods {
		for _, g := range m.Elements {
			b.size[b.elemVar[i][g]]++
		}
	}

	// Overlap constraints: one per element covered by multiple modules.
	covering := make(map[netlist.ID][]int)
	for i, m := range mods {
		for _, g := range m.Elements {
			covering[g] = append(covering[g], i)
		}
	}
	// Constraint rows are added in sorted element order: map iteration
	// order must not reach the solver. An exact solve is order-invariant,
	// but a node-limited search stops at whatever incumbent the traversal
	// found first, and the traversal follows problem layout — so row order
	// is part of the byte-identical-reports contract.
	shared := make([]netlist.ID, 0, len(covering))
	for g, owners := range covering {
		if len(owners) >= 2 {
			shared = append(shared, g)
		}
	}
	slices.Sort(shared)
	seenRows := make(map[string]bool)
	var key []byte
	for _, g := range shared {
		owners := covering[g]
		vars := make(map[int]bool, len(owners))
		for _, i := range owners {
			vars[b.elemVar[i][g]] = true
		}
		if len(vars) < 2 {
			continue
		}
		terms := make([]ilp.Term, 0, len(vars))
		for v := range vars {
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
		}
		// Canonicalize for deduplication.
		slices.SortFunc(terms, func(a, b ilp.Term) int { return cmp.Compare(a.Var, b.Var) })
		key = key[:0]
		for _, t := range terms {
			key = strconv.AppendInt(key, int64(t.Var), 10)
			key = append(key, ',')
		}
		if seenRows[string(key)] {
			continue
		}
		seenRows[string(key)] = true
		b.problem.AddConstraint(terms, ilp.LE, 1)
	}

	// Objective.
	b.problem.Objective = make([]int64, b.problem.NumVars)
	switch opt.Objective {
	case MaxCoverage:
		// Lexicographic: maximize covered elements, then prefer FEWER
		// modules. Scaling sizes by K > #modules and charging one unit per
		// selected module representative makes the module-count term a
		// pure tie-breaker; it can never trade away an element of
		// coverage. This is what keeps a verified RAM ahead of the
		// equal-coverage pile of muxes and per-word registers it overlaps
		// (abstraction quality, Section VI-A).
		b.problem.Sense = ilp.Maximize
		k := int64(len(mods) + 1)
		for v, s := range b.size {
			b.problem.Objective[v] = s * k
		}
		for i := range mods {
			b.problem.Objective[b.varOfMod[i]] -= 1
		}
	case MinModules:
		b.problem.Sense = ilp.Minimize
		for i := range mods {
			b.problem.Objective[b.varOfMod[i]] = 1
		}
		// Coverage floor: sum of Size(x)*x >= target.
		var terms []ilp.Term
		for v, s := range b.size {
			if s > 0 {
				terms = append(terms, ilp.Term{Var: v, Coef: s})
			}
		}
		b.problem.AddConstraint(terms, ilp.GE, int64(opt.CoverageTarget))
	}
	return b
}

// extract rebuilds the selected module set from the ILP solution.
func (b *builder) extract(sol ilp.Solution) Result {
	res := Result{Optimal: sol.Optimal, Nodes: sol.Nodes}
	for i, m := range b.mods {
		if !sol.Values[b.varOfMod[i]] {
			continue
		}
		if b.sliceVars[i] == nil {
			res.Selected = append(res.Selected, m)
			continue
		}
		// Rebuild from the selected slices + the shared bucket.
		var kept [][]netlist.ID
		var elements []netlist.ID
		for si, sv := range b.sliceVars[i] {
			if sol.Values[sv] {
				kept = append(kept, m.Slices[si])
				elements = append(elements, m.Slices[si]...)
			}
		}
		for _, g := range m.Elements {
			if b.elemVar[i][g] == b.varOfMod[i] {
				elements = append(elements, g)
			}
		}
		sliced := module.New(m.Type, len(kept), elements)
		sliced.Name = m.Name
		sliced.Slices = kept
		sliced.Ports = m.Ports
		sliced.Attr = m.Attr
		if len(kept) < len(m.Slices) {
			sliced.Name = fmt.Sprintf("%s(sliced %d/%d)", m.Name, len(kept), len(m.Slices))
		}
		res.Selected = append(res.Selected, sliced)
	}
	res.Coverage = module.CoverageCount(res.Selected)
	return res
}
