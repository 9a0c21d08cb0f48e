// Package bitsim implements 64-lane bit-parallel three-valued simulation:
// one machine word per signal simulates 64 independent input patterns at
// once. Signals are dual-rail encoded — a value word and an unknown mask —
// so the Kleene {0, 1, X} algebra costs a handful of word operations per
// gate regardless of how many patterns are in flight.
//
// The engine is the word-parallel counterpart of internal/sim's five-valued
// scalar simulator and is used where the portfolio needs bulk semantic
// evidence cheaply: refuting candidate module matches before the QBF solver
// runs (internal/modmatch), refuting decoder/popcount candidates before
// BDDs are built (internal/support), cross-checking cut functions against
// direct cone evaluation, and checking word propagations
// (internal/words). Symbolic (D/D̄) values are a Pair: a D=0 rail and a
// D=1 rail, joined after every gate so that a lane unknown on either rail
// is unknown on both. With the join, EvalPair is exactly the scalar
// D-calculus, 64 lanes at a time; internal/sim is kept as the test oracle
// that pins the two engines together.
package bitsim

import (
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// Lanes is the number of input patterns one Vector carries.
const Lanes = 64

// Vector is 64 lanes of a three-valued signal. Lane i is unknown (X) when
// bit i of Unk is set, otherwise it carries bit i of Val. The invariant
// Val & Unk == 0 holds for every Vector the engine produces.
type Vector struct {
	Val uint64
	Unk uint64
}

// Known returns a fully-known vector with the given lane values.
func Known(val uint64) Vector { return Vector{Val: val} }

// Unknown returns the all-X vector.
func Unknown() Vector { return Vector{Unk: ^uint64(0)} }

// Get returns lane i as (value, known).
func (v Vector) Get(i int) (bool, bool) {
	return v.Val>>uint(i)&1 == 1, v.Unk>>uint(i)&1 == 0
}

// Not complements the known lanes.
func (v Vector) Not() Vector {
	return Vector{Val: ^v.Val &^ v.Unk, Unk: v.Unk}
}

// And is the 64-lane Kleene conjunction: a known 0 on either side forces a
// known 0 regardless of the other side being X.
func (a Vector) And(b Vector) Vector {
	known0 := (^a.Val &^ a.Unk) | (^b.Val &^ b.Unk)
	unk := (a.Unk | b.Unk) &^ known0
	return Vector{Val: a.Val & b.Val, Unk: unk}
}

// Or is the 64-lane Kleene disjunction.
func (a Vector) Or(b Vector) Vector {
	known1 := a.Val | b.Val
	unk := (a.Unk | b.Unk) &^ known1
	return Vector{Val: known1, Unk: unk}
}

// Xor is the 64-lane Kleene exclusive-or: any X poisons the lane.
func (a Vector) Xor(b Vector) Vector {
	unk := a.Unk | b.Unk
	return Vector{Val: (a.Val ^ b.Val) &^ unk, Unk: unk}
}

// EvalGate evaluates one gate over vectors, mirroring sim.EvalGate.
func EvalGate(kind netlist.Kind, in []Vector) Vector {
	switch kind {
	case netlist.Const0:
		return Known(0)
	case netlist.Const1:
		return Known(^uint64(0))
	case netlist.Not:
		return in[0].Not()
	case netlist.Buf:
		return in[0]
	case netlist.And, netlist.Nand:
		acc := Known(^uint64(0))
		for _, v := range in {
			acc = acc.And(v)
		}
		if kind == netlist.Nand {
			acc = acc.Not()
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := Known(0)
		for _, v := range in {
			acc = acc.Or(v)
		}
		if kind == netlist.Nor {
			acc = acc.Not()
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := Known(0)
		for _, v := range in {
			acc = acc.Xor(v)
		}
		if kind == netlist.Xnor {
			acc = acc.Not()
		}
		return acc
	}
	panic("bitsim: EvalGate on " + kind.String())
}

// EvalLut evaluates a k-input truth-table cell over vectors by Shannon
// recursion on the packed mask, selecting each cofactor pair with the
// consensus form of the Kleene multiplexer (s&hi | ~s&lo | hi&lo). The extra
// consensus term makes the select exact when s is X but both cofactors
// agree, which by induction makes the whole evaluation the fully precise
// three-valued extension of the mask — the same answer sim.EvalLut reaches
// by exhaustive enumeration, one lane at a time.
func EvalLut(mask uint64, in []Vector) Vector {
	return lutRec(mask, len(in), in)
}

// lutRec evaluates the mask's cofactor over in[:j].
func lutRec(m uint64, j int, in []Vector) Vector {
	if j == 0 {
		if m&1 == 1 {
			return Known(^uint64(0))
		}
		return Known(0)
	}
	half := uint(1) << uint(j-1)
	lo := lutRec(m, j-1, in)
	hi := lutRec(m>>half, j-1, in)
	s := in[j-1]
	return s.And(hi).Or(s.Not().And(lo)).Or(hi.And(lo))
}

// Pair is 64 lanes of a five-valued {0, 1, D, D̄, X} signal in the
// D-calculus encoding: R0 is the lane's value with the symbol D=0 and R1
// its value with D=1, so 0=(0,0), 1=(1,1), D=(0,1), D̄=(1,0) and X=(X,X).
// Every Pair the engine produces is joined: a lane is X on both rails or
// on neither.
type Pair struct {
	R0, R1 Vector
}

// SymbolPair returns D in every lane.
func SymbolPair() Pair { return Pair{R0: Known(0), R1: Known(^uint64(0))} }

// UnknownPair returns X in every lane.
func UnknownPair() Pair { return Pair{R0: Unknown(), R1: Unknown()} }

// join makes a lane X on both rails when it is X on either. Without the
// join the two rails are two exact concrete runs, which know more than the
// D-calculus: And(D, Or(D, X)) would give D instead of X.
func (p Pair) join() Pair {
	unk := p.R0.Unk | p.R1.Unk
	return Pair{R0: Vector{Val: p.R0.Val &^ unk, Unk: unk}, R1: Vector{Val: p.R1.Val &^ unk, Unk: unk}}
}

// Force sets the lanes in set to the constants in val (bits outside set
// are ignored) on both rails.
func (p Pair) Force(set, val uint64) Pair {
	val &= set
	p.R0 = Vector{Val: p.R0.Val&^set | val, Unk: p.R0.Unk &^ set}
	p.R1 = Vector{Val: p.R1.Val&^set | val, Unk: p.R1.Unk &^ set}
	return p
}

// Symbolic returns the lanes that carry D or D̄; among them, the lanes set
// in R0.Val carry D̄.
func (p Pair) Symbolic() uint64 {
	return ^(p.R0.Unk | p.R1.Unk) & (p.R0.Val ^ p.R1.Val)
}

// EvalPair evaluates one node of the given kind (mask is the truth table of
// a Lut) on both rails and joins them. The result equals sim.EvalGate, or
// sim.EvalLut for a Lut, lane for lane: D∧D̄=0 and D⊕D=0 come from the
// rails, an X anywhere in the symbol's two expansions gives X, and a Lut
// is as precise as the scalar table lookup.
func EvalPair(kind netlist.Kind, mask uint64, in []Pair) Pair {
	var b0, b1 [8]Vector
	r0, r1 := b0[:0], b1[:0]
	for _, p := range in {
		r0 = append(r0, p.R0)
		r1 = append(r1, p.R1)
	}
	if kind == netlist.Lut {
		return Pair{R0: EvalLut(mask, r0), R1: EvalLut(mask, r1)}.join()
	}
	return Pair{R0: EvalGate(kind, r0), R1: EvalGate(kind, r1)}.join()
}

// Run evaluates the combinational logic of nl with the signals in assign
// forced to the given vectors. Like sim.Run, assignments may target ANY
// node: an assigned internal node is cut loose from its own logic and
// treated as a free input. Unassigned boundary signals are all-X. The
// returned slice is indexed by node ID.
func Run(nl *netlist.Netlist, assign map[netlist.ID]Vector) []Vector {
	vals := make([]Vector, nl.Len())
	var buf []Vector
	for _, id := range nl.TopoOrder() {
		if v, ok := assign[id]; ok {
			vals[id] = v
			continue
		}
		node := nl.Node(id)
		switch {
		case node.Kind.IsConeInput():
			vals[id] = Unknown()
		default:
			buf = buf[:0]
			for _, f := range node.Fanin {
				buf = append(buf, vals[f])
			}
			if node.Kind == netlist.Lut {
				vals[id] = EvalLut(node.Mask, buf)
			} else {
				vals[id] = EvalGate(node.Kind, buf)
			}
		}
	}
	return vals
}

// RunCone evaluates only the transitive fan-in cones of roots, stopping at
// assigned nodes and cone inputs, and returns the values of the visited
// nodes. It avoids the whole-netlist sweep of Run when the caller needs a
// few outputs of a large design — the shape of the candidate-filtering
// loops in modmatch and support.
func RunCone(nl *netlist.Netlist, roots []netlist.ID, assign map[netlist.ID]Vector) map[netlist.ID]Vector {
	vals := make(map[netlist.ID]Vector, 4*len(roots))
	var eval func(id netlist.ID) Vector
	buf := make([]Vector, 0, 8)
	eval = func(id netlist.ID) Vector {
		if v, ok := vals[id]; ok {
			return v
		}
		var v Vector
		if av, ok := assign[id]; ok {
			v = av
		} else if node := nl.Node(id); node.Kind.IsConeInput() {
			v = Unknown()
		} else {
			// Resolve fanins first (recursively), then fold the gate.
			for _, f := range node.Fanin {
				eval(f)
			}
			buf = buf[:0]
			for _, f := range node.Fanin {
				buf = append(buf, vals[f])
			}
			if node.Kind == netlist.Lut {
				v = EvalLut(node.Mask, buf)
			} else {
				v = EvalGate(node.Kind, buf)
			}
		}
		vals[id] = v
		return v
	}
	for _, r := range roots {
		eval(r)
	}
	return vals
}

// TableOf computes the truth table of root as a function of the given
// leaves by a single bit-parallel run: leaf i carries the projection
// pattern of variable i, so all 2^len(leaves) input rows evaluate in one
// word pass. It returns ok=false when root's value depends on signals
// other than the leaves (some row stayed X). len(leaves) must be at most
// truth.MaxVars.
func TableOf(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID) (truth.Table, bool) {
	n := len(leaves)
	if n > truth.MaxVars {
		panic("bitsim: TableOf beyond truth.MaxVars")
	}
	assign := make(map[netlist.ID]Vector, n)
	for i, l := range leaves {
		assign[l] = Known(truth.Var(i, truth.MaxVars).Bits)
	}
	vals := RunCone(nl, []netlist.ID{root}, assign)
	v := vals[root]
	mask := truth.Mask(n)
	if v.Unk&mask != 0 {
		return truth.Table{}, false
	}
	return truth.Table{Bits: v.Val & mask, N: n}, true
}
