package bitsim

// Differential tests pinning the bit-parallel engine to the scalar
// five-valued simulator: lane packing must be exact on {0, 1, X}
// assignments, the two-run pair encoding must agree with D-calculus
// wherever the scalar result is definite, the rail-joined EvalPair must
// equal it everywhere, and TableOf must reproduce the truth tables the
// cut enumerator computes structurally.

import (
	"math/rand"
	"testing"

	"netlistre/internal/cuts"
	"netlistre/internal/netlist"
	"netlistre/internal/sim"
)

// randNetlist builds a random DAG of gates over nIn inputs, with a couple
// of latches mixed in so cone-input handling is exercised.
func randNetlist(rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	nl := netlist.New("rand")
	pool := make([]netlist.ID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		pool = append(pool, nl.AddInput("in"+string(rune('a'+i))))
	}
	kinds := []netlist.Kind{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		var id netlist.ID
		switch {
		case k == netlist.Not || k == netlist.Buf:
			id = nl.AddGate(k, pool[rng.Intn(len(pool))])
		default:
			fanin := 2 + rng.Intn(2)
			ins := make([]netlist.ID, fanin)
			for i := range ins {
				ins[i] = pool[rng.Intn(len(pool))]
			}
			id = nl.AddGate(k, ins...)
		}
		if rng.Intn(12) == 0 {
			id = nl.AddLatch(id)
		}
		pool = append(pool, id)
	}
	return nl
}

// packAssign converts 64 scalar {0,1,X} assignments into one vector
// assignment (lane i carries scalar assignment i).
func packAssign(scalar [Lanes]map[netlist.ID]sim.Value) map[netlist.ID]Vector {
	packed := make(map[netlist.ID]Vector)
	for lane := 0; lane < Lanes; lane++ {
		for id, v := range scalar[lane] {
			vec := packed[id]
			switch v {
			case sim.One:
				vec.Val |= 1 << uint(lane)
			case sim.X:
				vec.Unk |= 1 << uint(lane)
			}
			packed[id] = vec
		}
	}
	return packed
}

// TestRunMatchesScalarSim: one bit-parallel Run over 64 packed {0,1,X}
// assignments must equal 64 scalar sim.Run calls lane for lane, on every
// node. On the three-valued subdomain the two engines implement the same
// Kleene algebra, so equality is exact — including X propagation.
func TestRunMatchesScalarSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	three := []sim.Value{sim.Zero, sim.One, sim.X}
	for trial := 0; trial < trials; trial++ {
		nl := randNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		// Assign every cone input plus a few random internal nodes (the
		// cut-loose semantics both engines share).
		var targets []netlist.ID
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if nl.Kind(id).IsConeInput() || rng.Intn(8) == 0 {
				targets = append(targets, id)
			}
		}
		// Every target is assigned in every lane: the assignment key set
		// must be lane-independent for the packing to be faithful.
		var scalar [Lanes]map[netlist.ID]sim.Value
		for lane := range scalar {
			scalar[lane] = make(map[netlist.ID]sim.Value, len(targets))
			for _, id := range targets {
				scalar[lane][id] = three[rng.Intn(3)]
			}
		}
		got := Run(nl, packAssign(scalar))
		for lane := 0; lane < Lanes; lane++ {
			want := sim.Run(nl, scalar[lane])
			for id := 0; id < nl.Len(); id++ {
				val, known := got[id].Get(lane)
				switch want[id] {
				case sim.Zero:
					if !known || val {
						t.Fatalf("trial %d node %d lane %d: sim=0 bitsim=(%v,%v)", trial, id, lane, val, known)
					}
				case sim.One:
					if !known || !val {
						t.Fatalf("trial %d node %d lane %d: sim=1 bitsim=(%v,%v)", trial, id, lane, val, known)
					}
				case sim.X:
					if known {
						t.Fatalf("trial %d node %d lane %d: sim=X bitsim known %v", trial, id, lane, val)
					}
				default:
					t.Fatalf("unexpected symbolic value from 3-valued assignment")
				}
			}
		}
	}
}

// concretize maps a five-valued assignment onto the three-valued engine for
// a concrete choice of the symbol D (D̄ is its complement).
func concretize(a map[netlist.ID]sim.Value, d bool) map[netlist.ID]Vector {
	out := make(map[netlist.ID]Vector, len(a))
	for id, v := range a {
		switch {
		case v == sim.One, v == sim.D && d, v == sim.DBar && !d:
			out[id] = Known(^uint64(0))
		case v == sim.Zero, v == sim.D && !d, v == sim.DBar && d:
			out[id] = Known(0)
		default:
			out[id] = Unknown()
		}
	}
	return out
}

// TestRunPairEncodingD: a five-valued sim.Run maps onto two bitsim runs
// (D=0 and D=1). Wherever the scalar engine produces a definite value
// (anything but X), both concrete runs must be known and decode to it:
// 0→(0,0), 1→(1,1), D→(0,1), D̄→(1,0). Where sim says X the concrete runs
// are unconstrained only because they run without the rail join: two
// separate exact runs know more than the D-calculus (And(D, Or(D, X)) is
// known on both). EvalPair joins the rails after every gate and matches
// the D-calculus exactly, X included (TestEvalPairMatchesDCalculus).
func TestRunPairEncodingD(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	five := []sim.Value{sim.Zero, sim.One, sim.D, sim.DBar, sim.X}
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		nl := randNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		assign := make(map[netlist.ID]sim.Value)
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if nl.Kind(id).IsConeInput() || rng.Intn(8) == 0 {
				assign[id] = five[rng.Intn(5)]
			}
		}
		want := sim.Run(nl, assign)
		run0 := Run(nl, concretize(assign, false))
		run1 := Run(nl, concretize(assign, true))
		for id := 0; id < nl.Len(); id++ {
			if want[id] == sim.X {
				continue
			}
			v0, k0 := run0[id].Get(0)
			v1, k1 := run1[id].Get(0)
			if !k0 || !k1 {
				t.Fatalf("trial %d node %d: sim=%v but a concrete run is X", trial, id, want[id])
			}
			var decoded sim.Value
			switch {
			case !v0 && !v1:
				decoded = sim.Zero
			case v0 && v1:
				decoded = sim.One
			case !v0 && v1:
				decoded = sim.D
			default:
				decoded = sim.DBar
			}
			if decoded != want[id] {
				t.Fatalf("trial %d node %d: sim=%v pair decodes to %v", trial, id, want[id], decoded)
			}
		}
	}
}

// setLane writes the five-valued v into lane l of p.
func setLane(p *Pair, l int, v sim.Value) {
	bit := uint64(1) << uint(l)
	switch v {
	case sim.One:
		p.R0.Val |= bit
		p.R1.Val |= bit
	case sim.D:
		p.R1.Val |= bit
	case sim.DBar:
		p.R0.Val |= bit
	case sim.X:
		p.R0.Unk |= bit
		p.R1.Unk |= bit
	}
}

// laneValue decodes lane l of a joined pair.
func laneValue(t *testing.T, p Pair, l int) sim.Value {
	t.Helper()
	v0, k0 := p.R0.Get(l)
	v1, k1 := p.R1.Get(l)
	if k0 != k1 || p.R0.Val&p.R0.Unk != 0 || p.R1.Val&p.R1.Unk != 0 {
		t.Fatalf("lane %d: pair %+v is not joined", l, p)
	}
	switch {
	case !k0:
		return sim.X
	case !v0 && !v1:
		return sim.Zero
	case v0 && v1:
		return sim.One
	case !v0:
		return sim.D
	}
	return sim.DBar
}

// checkPairLanes evaluates the inputs rows (one per lane) with EvalPair
// and compares every lane with the scalar reference.
func checkPairLanes(t *testing.T, kind netlist.Kind, mask uint64, rows [][]sim.Value, ref func([]sim.Value) sim.Value) {
	t.Helper()
	k := len(rows[0])
	in := make([]Pair, k)
	for l, row := range rows {
		for i, v := range row {
			setLane(&in[i], l, v)
		}
	}
	got := EvalPair(kind, mask, in)
	for l, row := range rows {
		if g, w := laneValue(t, got, l), ref(row); g != w {
			t.Fatalf("%v mask %#x inputs %v: EvalPair %v, D-calculus %v", kind, mask, row, g, w)
		}
	}
}

// forRows calls fn with successive batches of up to 64 input rows: all 5^k
// rows when exhaustive, else n random ones.
func forRows(rng *rand.Rand, k int, exhaustive bool, n int, fn func([][]sim.Value)) {
	if exhaustive {
		n = 1
		for i := 0; i < k; i++ {
			n *= 5
		}
	}
	var batch [][]sim.Value
	for r := 0; r < n; r++ {
		row := make([]sim.Value, k)
		for i, x := 0, r; i < k; i, x = i+1, x/5 {
			if exhaustive {
				row[i] = sim.Value(x % 5)
			} else {
				row[i] = sim.Value(rng.Intn(5))
			}
		}
		batch = append(batch, row)
		if len(batch) == Lanes || r == n-1 {
			fn(batch)
			batch = nil
		}
	}
}

// TestEvalPairMatchesDCalculus: the rail-joined pair evaluation equals
// sim.EvalGate lane for lane, X included, for every gate kind at arities
// 1-4 over all 5^k inputs, and sim.EvalLut for random masks up to k=6.
func TestEvalPairMatchesDCalculus(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, kind := range []netlist.Kind{netlist.Const0, netlist.Const1} {
		got := EvalPair(kind, 0, nil)
		want := sim.EvalGate(kind, nil)
		for l := 0; l < Lanes; l++ {
			if g := laneValue(t, got, l); g != want {
				t.Fatalf("%v lane %d: %v, want %v", kind, l, g, want)
			}
		}
	}
	kinds := []netlist.Kind{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	for _, kind := range kinds {
		maxK := 4
		if kind == netlist.Not || kind == netlist.Buf {
			maxK = 1
		}
		for k := 1; k <= maxK; k++ {
			forRows(rng, k, true, 0, func(rows [][]sim.Value) {
				checkPairLanes(t, kind, 0, rows, func(in []sim.Value) sim.Value { return sim.EvalGate(kind, in) })
			})
		}
	}
	for k := 1; k <= netlist.MaxLutInputs; k++ {
		for m := 0; m < 40; m++ {
			mask := rng.Uint64()
			if k < netlist.MaxLutInputs {
				mask &= 1<<(1<<uint(k)) - 1
			}
			forRows(rng, k, k <= 3, 256, func(rows [][]sim.Value) {
				checkPairLanes(t, netlist.Lut, mask, rows, func(in []sim.Value) sim.Value { return sim.EvalLut(mask, in) })
			})
		}
	}
}

// TestRunConeMatchesRun: the sparse cone evaluator must agree with the full
// sweep on every node it visits, and must visit at least the roots.
func TestRunConeMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		nl := randNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		assign := make(map[netlist.ID]Vector)
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if nl.Kind(id).IsConeInput() && rng.Intn(3) != 0 {
				assign[id] = Vector{Val: rng.Uint64()}
			} else if rng.Intn(10) == 0 {
				assign[id] = Vector{Unk: rng.Uint64()}
			}
		}
		if v, ok := assign[0]; ok && v.Val&v.Unk != 0 {
			t.Fatal("test bug: invariant-violating assignment")
		}
		var roots []netlist.ID
		for i := 0; i < 3; i++ {
			roots = append(roots, netlist.ID(rng.Intn(nl.Len())))
		}
		full := Run(nl, assign)
		cone := RunCone(nl, roots, assign)
		for _, r := range roots {
			if _, ok := cone[r]; !ok {
				t.Fatalf("trial %d: root %d not evaluated", trial, r)
			}
		}
		for id, v := range cone {
			if v != full[id] {
				t.Fatalf("trial %d node %d: cone %+v, full %+v", trial, id, v, full[id])
			}
		}
	}
}

// TestVectorInvariant: every lane operation preserves Val & Unk == 0.
func TestVectorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randVec := func() Vector {
		unk := rng.Uint64()
		return Vector{Val: rng.Uint64() &^ unk, Unk: unk}
	}
	check := func(name string, v Vector) {
		if v.Val&v.Unk != 0 {
			t.Fatalf("%s violated Val&Unk==0: %+v", name, v)
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randVec(), randVec()
		check("And", a.And(b))
		check("Or", a.Or(b))
		check("Xor", a.Xor(b))
		check("Not", a.Not())
	}
}

// TestTableOfMatchesCuts: for every cut the enumerator produces, evaluating
// the root's cone with projection words on the cut leaves must reproduce
// the cut's truth table bit for bit. This pins the bit-parallel engine to
// the structural table construction it is meant to accelerate.
func TestTableOfMatchesCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		nl := randNetlist(rng, 4+rng.Intn(3), 15+rng.Intn(40))
		sets := cuts.Enumerate(nl, cuts.Options{K: 6, MaxCuts: 24})
		for id, cs := range sets {
			for _, c := range cs {
				if len(c.Leaves) == 0 {
					continue // constant cut: no leaves to project
				}
				got, ok := TableOf(nl, id, c.Leaves)
				if !ok {
					t.Fatalf("trial %d root %d leaves %v: cut cone left X rows", trial, id, c.Leaves)
				}
				if got != c.Table {
					t.Fatalf("trial %d root %d leaves %v: TableOf=%v cut table=%v",
						trial, id, c.Leaves, got, c.Table)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d cuts cross-checked; generator too small", checked)
	}
}
