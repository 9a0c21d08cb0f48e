// Package ilp implements an exact solver for 0-1 integer linear programs,
// standing in for CPLEX in the paper's overlap-resolution step (Section IV).
//
// The instances produced by overlap resolution have a characteristic shape:
// binary variables (one per module or slice), packing rows (Σ x_i ≤ 1, one
// per multiply-covered netlist element), slice-linking rows, and optionally
// a single covering row (Σ S_i·x_i ≥ C_t). The solver is a branch-and-bound
// search with unit propagation over the rows, a clique-partition bound that
// exploits the packing rows, and a greedy warm start. It is exact: when it
// reports Optimal, the solution maximizes (or minimizes) the objective.
package ilp

import (
	"errors"
	"sort"
)

// Sense selects the optimization direction.
type Sense int8

// Optimization senses.
const (
	Maximize Sense = iota
	Minimize
)

// Rel is a linear constraint relation.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // Σ c_i x_i ≤ rhs
	GE            // Σ c_i x_i ≥ rhs
)

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef int64
}

// Constraint is a linear row over binary variables.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   int64
}

// Problem is a 0-1 ILP.
type Problem struct {
	NumVars     int
	Objective   []int64 // dense, one weight per variable
	Sense       Sense
	Constraints []Constraint
}

// AddConstraint appends a row.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs int64) {
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Rel: rel, RHS: rhs})
}

// Solution is a solver result.
type Solution struct {
	Values    []bool
	Objective int64
	// Optimal is true when the search completed; false when NodeLimit was
	// hit, in which case Values holds the best incumbent found.
	Optimal bool
	// Nodes is the number of branch-and-bound nodes the search visited.
	Nodes int64
}

// Options tunes the search.
type Options struct {
	// NodeLimit bounds branch-and-bound nodes (0 = DefaultNodeLimit).
	NodeLimit int64
	// Incumbent optionally supplies a known feasible assignment used as
	// the initial best solution (it must have length NumVars; infeasible
	// incumbents are ignored). A strong incumbent massively improves
	// pruning.
	Incumbent []bool
	// Interrupt, when non-nil, is polled every 1024 branch-and-bound
	// nodes; when it returns true the search stops and the best incumbent
	// found so far is returned with Optimal=false (or ErrInfeasible when
	// no incumbent exists yet).
	Interrupt func() bool
}

// DefaultNodeLimit bounds the search when Options.NodeLimit is 0. Overlap
// resolution does not rely on it: it passes its own per-component limit of
// 200k nodes, which one component each of five gate-level articles
// (mips16, riscfpu, router, oc8051, aemb) reaches.
const DefaultNodeLimit = 20_000_000

// ErrInfeasible is returned when no assignment satisfies the constraints.
var ErrInfeasible = errors.New("ilp: infeasible")

type varRef struct {
	row  int32
	coef int64
}

type solver struct {
	p         *Problem
	obj       []int64 // internally always "maximize obj"
	rows      []row
	varRows   [][]varRef // rows touching each variable, with coefficients
	assign    []int8     // -1 unassigned, 0, 1
	trail     []int32
	bestVal   int64
	bestSet   []bool
	hasBest   bool
	nodes     int64
	nodeLimit int64
	currObj   int64 // objective of the current partial assignment
	interrupt func() bool
	stopped   bool // interrupt fired; unwind without exploring further

	branchOrd []int

	// Clique bound, kept up to date by set and undoTo (see bound).
	// cliqueOf[v] is the clique holding positive-objective variable v, or
	// -1; cliquePos[v] is v's index in that clique's members.
	cliqueOf  []int32
	cliquePos []int32
	cliques   []clique
	freeSum   int64 // Σ obj[v] > 0 over unassigned v in no clique
	cliqueSum int64 // Σ over cliques of the best unassigned member's obj
}

// clique is the positive-objective part of one packing row used by the
// bound: at most one member can be 1, so the row contributes at most its
// best unassigned member.
type clique struct {
	members []int32 // by objective, best first
	next    int     // index of the first unassigned member
}

type row struct {
	terms []Term
	rel   Rel
	rhs   int64
	// slack bookkeeping under current partial assignment:
	// curr  = Σ over assigned terms of c_i * x_i
	// posUn = Σ over unassigned terms of max(0, c_i)
	// negUn = Σ over unassigned terms of min(0, c_i)
	curr, posUn, negUn int64
	// maxPos and maxNeg are the largest |c_i| over the row's positive and
	// negative terms; a row whose slack is at least both forces nothing.
	maxPos, maxNeg int64
	packing        bool // Σ x_i ≤ 1 with unit coefficients
}

// Solve finds an optimal 0-1 assignment for p.
func Solve(p *Problem, opt Options) (Solution, error) {
	s, err := newSolver(p, opt)
	if err != nil {
		return Solution{}, err
	}
	s.greedyWarmStart()
	if len(opt.Incumbent) == p.NumVars && feasible(p, opt.Incumbent) {
		var obj int64
		for v, on := range opt.Incumbent {
			if on {
				obj += s.obj[v]
			}
		}
		if !s.hasBest || obj > s.bestVal {
			s.bestVal = obj
			s.bestSet = append([]bool(nil), opt.Incumbent...)
			s.hasBest = true
		}
	}

	mark := len(s.trail)
	if s.propagateAll() {
		s.search(0)
	}
	s.undoTo(mark)

	if !s.hasBest {
		return Solution{Nodes: s.nodes}, ErrInfeasible
	}
	val := s.bestVal
	if p.Sense == Minimize {
		val = -val
	}
	return Solution{Values: s.bestSet, Objective: val,
		Optimal: s.nodes < s.nodeLimit && !s.stopped, Nodes: s.nodes}, nil
}

// newSolver validates p and sets up the search state with every variable
// unassigned.
func newSolver(p *Problem, opt Options) (*solver, error) {
	if len(p.Objective) != p.NumVars {
		return nil, errors.New("ilp: objective length mismatch")
	}
	s := &solver{p: p, nodeLimit: opt.NodeLimit, interrupt: opt.Interrupt}
	if s.nodeLimit == 0 {
		s.nodeLimit = DefaultNodeLimit
	}
	s.obj = make([]int64, p.NumVars)
	for i, o := range p.Objective {
		if p.Sense == Minimize {
			s.obj[i] = -o
		} else {
			s.obj[i] = o
		}
	}
	s.rows = make([]row, len(p.Constraints))
	s.varRows = make([][]varRef, p.NumVars)
	for i, c := range p.Constraints {
		r := row{terms: c.Terms, rel: c.Rel, rhs: c.RHS}
		r.packing = c.Rel == LE && c.RHS == 1
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return nil, errors.New("ilp: constraint variable out of range")
			}
			if t.Coef > 0 {
				r.posUn += t.Coef
				r.maxPos = max(r.maxPos, t.Coef)
			} else {
				r.negUn += t.Coef
				r.maxNeg = max(r.maxNeg, -t.Coef)
			}
			if t.Coef != 1 {
				r.packing = false
			}
			s.varRows[t.Var] = append(s.varRows[t.Var], varRef{int32(i), t.Coef})
		}
		s.rows[i] = r
	}
	s.assign = make([]int8, p.NumVars)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.initCliques()
	// Branch on high-objective variables first.
	s.branchOrd = make([]int, p.NumVars)
	for i := range s.branchOrd {
		s.branchOrd[i] = i
	}
	sort.Slice(s.branchOrd, func(a, b int) bool {
		oa, ob := s.obj[s.branchOrd[a]], s.obj[s.branchOrd[b]]
		if oa != ob {
			return oa > ob
		}
		return s.branchOrd[a] < s.branchOrd[b]
	})
	return s, nil
}

// initCliques assigns each positive-objective variable to one packing row
// for the clique bound, preferring larger rows (bigger cliques give
// tighter bounds), and sets up the bound's running sums.
func (s *solver) initCliques() {
	rowOrder := make([]int, 0, len(s.rows))
	for ri := range s.rows {
		if s.rows[ri].packing {
			rowOrder = append(rowOrder, ri)
		}
	}
	sort.Slice(rowOrder, func(a, b int) bool {
		return len(s.rows[rowOrder[a]].terms) > len(s.rows[rowOrder[b]].terms)
	})
	s.cliqueOf = make([]int32, s.p.NumVars)
	for i := range s.cliqueOf {
		s.cliqueOf[i] = -1
	}
	for _, ri := range rowOrder {
		c := int32(-1)
		for _, t := range s.rows[ri].terms {
			if s.cliqueOf[t.Var] != -1 || s.obj[t.Var] <= 0 {
				continue
			}
			if c == -1 {
				c = int32(len(s.cliques))
				s.cliques = append(s.cliques, clique{})
			}
			s.cliqueOf[t.Var] = c
			s.cliques[c].members = append(s.cliques[c].members, int32(t.Var))
		}
	}
	s.cliquePos = make([]int32, s.p.NumVars)
	for ci := range s.cliques {
		m := s.cliques[ci].members
		sort.Slice(m, func(a, b int) bool { return s.obj[m[a]] > s.obj[m[b]] })
		for i, v := range m {
			s.cliquePos[v] = int32(i)
		}
		s.cliqueSum += s.obj[m[0]]
	}
	for v, o := range s.obj {
		if o > 0 && s.cliqueOf[v] == -1 {
			s.freeSum += o
		}
	}
}

// greedyWarmStart tries to construct a feasible incumbent by greedily
// setting high-objective variables to 1 when no LE row blocks them, then
// verifying all rows. It only installs the incumbent if genuinely feasible
// (GE rows may reject it).
func (s *solver) greedyWarmStart() {
	vals := make([]bool, s.p.NumVars)
	used := make([]int64, len(s.rows))
	for _, v := range s.branchOrd {
		if s.obj[v] < 0 {
			continue
		}
		ok := true
		for _, vr := range s.varRows[v] {
			r := &s.rows[vr.row]
			if r.rel != LE {
				continue
			}
			if vr.coef > 0 && used[vr.row]+vr.coef > r.rhs {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		vals[v] = true
		for _, vr := range s.varRows[v] {
			used[vr.row] += vr.coef
		}
	}
	if !feasible(s.p, vals) {
		return
	}
	var obj int64
	for v, on := range vals {
		if on {
			obj += s.obj[v]
		}
	}
	s.bestVal = obj
	s.bestSet = vals
	s.hasBest = true
}

func feasible(p *Problem, vals []bool) bool {
	for _, c := range p.Constraints {
		var sum int64
		for _, t := range c.Terms {
			if vals[t.Var] {
				sum += t.Coef
			}
		}
		if c.Rel == LE && sum > c.RHS {
			return false
		}
		if c.Rel == GE && sum < c.RHS {
			return false
		}
	}
	return true
}

func (s *solver) currentObjective() int64 { return s.currObj }

// set assigns v (recording on the trail) and updates row slacks. It returns
// false if a row became unsatisfiable.
func (s *solver) set(v int, val int8) bool {
	s.assign[v] = val
	if val == 1 {
		s.currObj += s.obj[v]
	}
	s.trail = append(s.trail, int32(v))
	if ci := s.cliqueOf[v]; ci != -1 {
		q := &s.cliques[ci]
		if int(q.members[q.next]) == v {
			s.cliqueSum -= s.obj[v]
			for q.next++; q.next < len(q.members); q.next++ {
				if u := q.members[q.next]; s.assign[u] == -1 {
					s.cliqueSum += s.obj[u]
					break
				}
			}
		}
	} else if s.obj[v] > 0 {
		s.freeSum -= s.obj[v]
	}
	// Every row is updated even after a conflict: undoTo reverses v in all
	// of its rows.
	ok := true
	for _, vr := range s.varRows[v] {
		r := &s.rows[vr.row]
		c := vr.coef
		if c > 0 {
			r.posUn -= c
		} else {
			r.negUn -= c
		}
		if val == 1 {
			r.curr += c
		}
		if r.rel == LE && r.curr+r.negUn > r.rhs || r.rel == GE && r.curr+r.posUn < r.rhs {
			ok = false
		}
	}
	return ok
}

func (s *solver) undoTo(mark int) {
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		val := s.assign[v]
		if val == 1 {
			s.currObj -= s.obj[int(v)]
		}
		s.assign[v] = -1
		if ci := s.cliqueOf[v]; ci != -1 {
			q := &s.cliques[ci]
			if p := int(s.cliquePos[v]); p < q.next {
				if q.next < len(q.members) {
					s.cliqueSum -= s.obj[q.members[q.next]]
				}
				s.cliqueSum += s.obj[v]
				q.next = p
			}
		} else if s.obj[v] > 0 {
			s.freeSum += s.obj[v]
		}
		for _, vr := range s.varRows[v] {
			r := &s.rows[vr.row]
			c := vr.coef
			if c > 0 {
				r.posUn += c
			} else {
				r.negUn += c
			}
			if val == 1 {
				r.curr -= c
			}
		}
	}
}

// propagateAll performs fixed-point unit propagation over all rows,
// returning false on conflict. It is used once at the root; the search
// uses the cheaper worklist propagation below.
func (s *solver) propagateAll() bool {
	for {
		changed := false
		for ri := range s.rows {
			switch s.propagateRow(ri) {
			case propConflict:
				return false
			case propChanged:
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// propagateSince processes the rows touched by assignments recorded on the
// trail from mark onward; newly forced assignments extend the trail and are
// processed in turn.
func (s *solver) propagateSince(mark int) bool {
	for i := mark; i < len(s.trail); i++ {
		v := s.trail[i]
		for _, vr := range s.varRows[v] {
			if s.propagateRow(int(vr.row)) == propConflict {
				return false
			}
		}
	}
	return true
}

type propResult int8

const (
	propNone propResult = iota
	propChanged
	propConflict
)

// propagateRow forces variables whose value is implied by row ri.
func (s *solver) propagateRow(ri int) propResult {
	r := &s.rows[ri]
	res := propNone
	if r.rel == LE {
		slack := r.rhs - r.curr - r.negUn
		if slack < 0 {
			return propConflict
		}
		if r.nothingForced(slack) {
			return propNone
		}
		for _, t := range r.terms {
			if s.assign[t.Var] != -1 {
				continue
			}
			if t.Coef > 0 && r.curr+r.negUn+t.Coef > r.rhs {
				if !s.set(t.Var, 0) {
					return propConflict
				}
				res = propChanged
			} else if t.Coef < 0 && r.curr+r.negUn-t.Coef > r.rhs {
				// Leaving it 0 removes the negative help; must set to 1.
				if !s.set(t.Var, 1) {
					return propConflict
				}
				res = propChanged
			}
		}
	} else {
		slack := r.curr + r.posUn - r.rhs
		if slack < 0 {
			return propConflict
		}
		if r.nothingForced(slack) {
			return propNone
		}
		for _, t := range r.terms {
			if s.assign[t.Var] != -1 {
				continue
			}
			if t.Coef > 0 && r.curr+r.posUn-t.Coef < r.rhs {
				if !s.set(t.Var, 1) {
					return propConflict
				}
				res = propChanged
			} else if t.Coef < 0 && r.curr+r.posUn+t.Coef < r.rhs {
				if !s.set(t.Var, 0) {
					return propConflict
				}
				res = propChanged
			}
		}
	}
	return res
}

// nothingForced reports whether row r, with the given non-negative slack,
// can force none of its unassigned terms: a term is forced only when its
// |coefficient| exceeds the slack, and posUn/negUn tell whether any
// unassigned term of each sign is left.
func (r *row) nothingForced(slack int64) bool {
	return (r.posUn == 0 || r.maxPos <= slack) && (r.negUn == 0 || r.maxNeg <= slack)
}

// bound returns an upper bound on the best achievable objective from the
// current partial assignment: the current objective plus, for each packing
// clique, the best unassigned member, plus unclustered positive weights.
// A clique whose row already has curr = rhs still counts its best member;
// propagation normally forces members to 0 in that case.
func (s *solver) bound(curr int64) int64 {
	return curr + s.freeSum + s.cliqueSum
}

func (s *solver) search(from int) {
	s.nodes++
	if s.nodes >= s.nodeLimit || s.stopped {
		return
	}
	if s.nodes&1023 == 0 && s.interrupt != nil && s.interrupt() {
		s.stopped = true
		return
	}
	curr := s.currentObjective()
	if s.hasBest && s.bound(curr) <= s.bestVal {
		return
	}
	// Pick the best-ranked unassigned variable, scanning from the parent's
	// position (earlier entries are already assigned on this path).
	v := -1
	next := from
	for ; next < len(s.branchOrd); next++ {
		if s.assign[s.branchOrd[next]] == -1 {
			v = s.branchOrd[next]
			break
		}
	}
	if v == -1 {
		if !s.hasBest || curr > s.bestVal {
			s.bestVal = curr
			s.bestSet = make([]bool, len(s.assign))
			for i, a := range s.assign {
				s.bestSet[i] = a == 1
			}
			s.hasBest = true
		}
		return
	}

	order := [2]int8{1, 0}
	if s.obj[v] < 0 {
		order = [2]int8{0, 1}
	}
	for _, val := range order {
		mark := len(s.trail)
		if s.set(v, val) && s.propagateSince(mark) {
			s.search(next + 1)
		}
		s.undoTo(mark)
		if s.nodes >= s.nodeLimit || s.stopped {
			return
		}
	}
}
