package ilp

import (
	"math/rand"
	"testing"
)

// bruteForce enumerates all assignments and returns the best objective and
// whether any assignment is feasible.
func bruteForce(p *Problem) (int64, bool) {
	best := int64(0)
	found := false
	for m := 0; m < 1<<uint(p.NumVars); m++ {
		vals := make([]bool, p.NumVars)
		for i := range vals {
			vals[i] = m>>uint(i)&1 == 1
		}
		if !feasible(p, vals) {
			continue
		}
		var obj int64
		for i, on := range vals {
			if on {
				obj += p.Objective[i]
			}
		}
		if !found {
			best = obj
			found = true
			continue
		}
		if p.Sense == Maximize && obj > best {
			best = obj
		}
		if p.Sense == Minimize && obj < best {
			best = obj
		}
	}
	return best, found
}

func TestSimplePacking(t *testing.T) {
	// Two overlapping modules of size 5 and 3 plus a disjoint module of
	// size 4: optimal coverage = 5 + 4.
	p := &Problem{NumVars: 3, Objective: []int64{5, 3, 4}, Sense: Maximize}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 9 || !sol.Optimal {
		t.Errorf("objective = %d optimal=%v, want 9 true", sol.Objective, sol.Optimal)
	}
	if !sol.Values[0] || sol.Values[1] || !sol.Values[2] {
		t.Errorf("values = %v, want [true false true]", sol.Values)
	}
}

func TestMinimizeWithCoverageTarget(t *testing.T) {
	// Modules of size 6, 5, 5, 2; cover at least 10 elements with the
	// fewest modules: {6,5} = 2 modules.
	p := &Problem{NumVars: 4, Objective: []int64{1, 1, 1, 1}, Sense: Minimize}
	p.AddConstraint([]Term{{0, 6}, {1, 5}, {2, 5}, {3, 2}}, GE, 10)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 2 {
		t.Errorf("objective = %d, want 2", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []int64{1, 1}, Sense: Maximize}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 3) // max achievable is 2
	if _, err := Solve(p, Options{}); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestForcedVariables(t *testing.T) {
	// x0 >= 1 forces x0; x0 + x1 <= 1 then forces x1 = 0.
	p := &Problem{NumVars: 2, Objective: []int64{1, 10}, Sense: Maximize}
	p.AddConstraint([]Term{{0, 1}}, GE, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Values[0] || sol.Values[1] {
		t.Errorf("values = %v, want [true false]", sol.Values)
	}
	if sol.Objective != 1 {
		t.Errorf("objective = %d, want 1", sol.Objective)
	}
}

func TestSliceLinkingShape(t *testing.T) {
	// A miniature of the paper's sliceable formulation (Figure 8): a 5-bit
	// mux with slices x1..x5 and umbrella x0, overlapping a RAM module y.
	// Slices 4 and 5 overlap the RAM; MinSlices = 2.
	// Vars: 0=x_i0, 1..5=x_i1..x_i5, 6=y (RAM, size 40).
	obj := []int64{1, 3, 3, 3, 3, 3, 40} // shared inverter=1, slices=3 gates each
	p := &Problem{NumVars: 7, Objective: obj, Sense: Maximize}
	// Overlap: slice4/slice5 vs RAM.
	p.AddConstraint([]Term{{4, 1}, {6, 1}}, LE, 1)
	p.AddConstraint([]Term{{5, 1}, {6, 1}}, LE, 1)
	// Slice linking: x0 >= xj  <=>  x0 - xj >= 0.
	for j := 1; j <= 5; j++ {
		p.AddConstraint([]Term{{0, 1}, {j, -1}}, GE, 0)
	}
	// MinSlices: sum xj - 2*x0 >= 0.
	p.AddConstraint([]Term{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {0, -2}}, GE, 0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: RAM + slices 1,2,3 + umbrella = 40 + 9 + 1 = 50.
	if sol.Objective != 50 {
		t.Errorf("objective = %d, want 50 (values %v)", sol.Objective, sol.Values)
	}
	if !sol.Values[6] || !sol.Values[0] || sol.Values[4] || sol.Values[5] {
		t.Errorf("values = %v", sol.Values)
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		p := &Problem{NumVars: n, Sense: Sense(rng.Intn(2))}
		p.Objective = make([]int64, n)
		for i := range p.Objective {
			p.Objective[i] = int64(rng.Intn(21) - 5)
		}
		nCons := rng.Intn(6)
		for c := 0; c < nCons; c++ {
			nTerms := 1 + rng.Intn(n)
			perm := rng.Perm(n)[:nTerms]
			var terms []Term
			for _, v := range perm {
				terms = append(terms, Term{v, int64(rng.Intn(9) - 3)})
			}
			rel := Rel(rng.Intn(2))
			rhs := int64(rng.Intn(13) - 4)
			p.AddConstraint(terms, rel, rhs)
		}
		want, wantFeas := bruteForce(p)
		sol, err := Solve(p, Options{})
		if !wantFeas {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: expected infeasible, got %v obj=%d", trial, err, sol.Objective)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: err = %v, want feasible obj %d", trial, err, want)
		}
		if sol.Objective != want {
			t.Fatalf("trial %d: objective = %d, want %d (sense=%v)", trial, sol.Objective, want, p.Sense)
		}
		if !feasible(p, sol.Values) {
			t.Fatalf("trial %d: returned assignment infeasible", trial)
		}
	}
}

func TestLargePackingPerformance(t *testing.T) {
	// 600 modules in 200 overlapping triples must solve quickly and
	// optimally: each triple contributes its max.
	rng := rand.New(rand.NewSource(99))
	const groups = 200
	p := &Problem{NumVars: 3 * groups, Sense: Maximize}
	p.Objective = make([]int64, p.NumVars)
	var want int64
	for g := 0; g < groups; g++ {
		best := int64(0)
		var terms []Term
		for j := 0; j < 3; j++ {
			v := 3*g + j
			p.Objective[v] = int64(1 + rng.Intn(50))
			if p.Objective[v] > best {
				best = p.Objective[v]
			}
			terms = append(terms, Term{v, 1})
		}
		p.AddConstraint(terms, LE, 1)
		want += best
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != want || !sol.Optimal {
		t.Errorf("objective = %d (optimal=%v), want %d", sol.Objective, sol.Optimal, want)
	}
}

// TestIncrementalStateMatchesRecompute walks random set/undoTo sequences,
// conflicts included, and checks after every step that each row's slack
// counters and the running clique bound equal a from-scratch recomputation
// over the current assignment.
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		p := overlapShaped(int64(trial), 3+rng.Intn(20), trial%3 == 0)
		s, err := newSolver(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var marks []int
		for step := 0; step < 300; step++ {
			if len(marks) > 0 && rng.Intn(5) < 2 {
				k := rng.Intn(len(marks))
				s.undoTo(marks[k])
				marks = marks[:k]
			} else if len(s.trail) < p.NumVars {
				v := rng.Intn(p.NumVars)
				for s.assign[v] != -1 {
					v = (v + 1) % p.NumVars
				}
				marks = append(marks, len(s.trail))
				s.set(v, int8(rng.Intn(2)))
			}
			checkIncremental(t, s)
		}
	}
}

func checkIncremental(t *testing.T, s *solver) {
	t.Helper()
	for ri, r := range s.rows {
		var curr, posUn, negUn int64
		for _, tm := range r.terms {
			switch a := s.assign[tm.Var]; {
			case a == 1:
				curr += tm.Coef
			case a == -1 && tm.Coef > 0:
				posUn += tm.Coef
			case a == -1:
				negUn += tm.Coef
			}
		}
		if r.curr != curr || r.posUn != posUn || r.negUn != negUn {
			t.Fatalf("row %d: curr/posUn/negUn = %d/%d/%d, recomputed %d/%d/%d",
				ri, r.curr, r.posUn, r.negUn, curr, posUn, negUn)
		}
	}
	want := s.currObj
	best := make(map[int32]int64)
	for v, a := range s.assign {
		if a != -1 || s.obj[v] <= 0 {
			continue
		}
		if c := s.cliqueOf[v]; c == -1 {
			want += s.obj[v]
		} else {
			best[c] = max(best[c], s.obj[v])
		}
	}
	for _, o := range best {
		want += o
	}
	if got := s.bound(s.currObj); got != want {
		t.Fatalf("bound = %d, recomputed %d", got, want)
	}
}
