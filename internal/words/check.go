package words

import (
	"math/bits"

	"netlistre/internal/bitsim"
	"netlistre/internal/netlist"
)

// checkFunc decides one (source, target) candidate. The production check
// is checker.check; tests substitute a scalar reference.
type checkFunc func(src, tgt Word, opt Options, backward bool) (Propagation, bool)

// checker decides candidates with scratch space sized to one netlist and
// reused across every candidate of a propagation run.
type checker struct {
	nl *netlist.Netlist
	// pos maps a node to its cone position; seen and reach serve the
	// control-wire search.
	pos, seen, reach slots

	nodes    []coneNode
	fanin    []int32 // cone positions of every gate's fanins, back to back
	tgt      []int32 // cone position of each target bit
	stack    []int32
	frontier []netlist.ID
	next     []netlist.ID
	vals, in []bitsim.Pair
}

func newChecker(nl *netlist.Netlist) *checker {
	n := nl.Len()
	return &checker{nl: nl, pos: newSlots(n), seen: newSlots(n), reach: newSlots(n)}
}

// coneNode is one node of a candidate's cone: a gate, a source bit (D) or
// an input or latch (X).
type coneNode struct {
	kind netlist.Kind
	src  bool
	// ctrl indexes the node among the candidate's controls, -1 if none.
	ctrl int32
	// lo:hi indexes a gate's fanins in checker.fanin.
	lo, hi int32
	mask   uint64
}

// check runs the symbolic simulations. src bits are forced to D (cutting
// them loose from their own logic, as in the paper's local-netlist
// simulation); combinations of up to MaxControls control wires are swept
// over all binary values; all other boundary signals are X.
//
// Only the targets' fan-in cone is simulated, and 64 control assignments
// share one pass: each cone node carries a bitsim.Pair, the exact
// D-calculus over 64 lanes, whose lane l is the pass's l-th trial. A
// control is forced in the lanes that assign it and computed normally in
// the others. Trials run in the reference order (no controls first, then
// subsets of size 1..MaxControls in lexicographic order, each with its
// masks in increasing order) and the lowest successful lane wins.
//
// Controls outside the cone (past a latch's D input, or upstream of the
// source bits) are left out of the enumeration: a trial that assigns one
// succeeds exactly when the same trial without it does, and that smaller
// trial comes earlier, so it is never the first success.
func (c *checker) check(src, tgt Word, opt Options, backward bool) (Propagation, bool) {
	c.buildCone(src, tgt)
	var ctrls []netlist.ID
	for _, id := range c.controlWires(src, tgt, opt) {
		if p, ok := c.pos.get(id); ok {
			c.nodes[p].ctrl = int32(len(ctrls))
			ctrls = append(ctrls, id)
		}
	}
	set := make([]uint64, len(ctrls))
	val := make([]uint64, len(ctrls))
	if cap(c.vals) < len(c.nodes) {
		c.vals = make([]bitsim.Pair, len(c.nodes))
	}
	vals := c.vals[:len(c.nodes)]
	it := trials{n: len(ctrls), max: opt.MaxControls}
	for {
		if opt.Interrupt != nil && opt.Interrupt() {
			return Propagation{}, false
		}
		lanes := it.fill(set, val)
		if lanes == 0 {
			return Propagation{}, false
		}
		for i := range c.nodes {
			n := &c.nodes[i]
			var v bitsim.Pair
			switch {
			case n.src:
				v = bitsim.SymbolPair()
			case n.kind.IsConeInput():
				v = bitsim.UnknownPair()
			default:
				in := c.in[:0]
				for _, f := range c.fanin[n.lo:n.hi] {
					in = append(in, vals[f])
				}
				c.in = in
				v = bitsim.EvalPair(n.kind, n.mask, in)
			}
			if n.ctrl >= 0 {
				v = v.Force(set[n.ctrl], val[n.ctrl])
			}
			vals[i] = v
		}
		ok := ^uint64(0) >> uint(bitsim.Lanes-lanes)
		for _, p := range c.tgt {
			ok &= vals[p].Symbolic()
		}
		if ok == 0 {
			continue
		}
		lane := uint(bits.TrailingZeros64(ok))
		ctrl := make(map[netlist.ID]bool)
		for j, id := range ctrls {
			if set[j]>>lane&1 == 1 {
				ctrl[id] = val[j]>>lane&1 == 1
			}
		}
		neg := make([]bool, len(tgt.Bits))
		for i, p := range c.tgt {
			neg[i] = vals[p].R0.Val>>lane&1 == 1
		}
		return Propagation{Source: src, Target: tgt, Controls: ctrl, Negated: neg, Backward: backward}, true
	}
}

// buildCone collects the combinational fan-in cone of the target bits in
// topological order, cut at the source bits and at inputs and latches.
func (c *checker) buildCone(src, tgt Word) {
	c.pos.reset()
	c.nodes, c.fanin, c.tgt = c.nodes[:0], c.fanin[:0], c.tgt[:0]
	for _, b := range src.Bits {
		c.pos.set(b, c.add(coneNode{src: true}))
	}
	for _, t := range tgt.Bits {
		c.tgt = append(c.tgt, c.visit(t))
	}
}

// onPath marks a gate whose fanins are still being visited.
const onPath = -1

func (c *checker) visit(id netlist.ID) int32 {
	if p, ok := c.pos.get(id); ok {
		if p == onPath { // a combinational cycle reads X
			return c.add(coneNode{kind: netlist.Input})
		}
		return p
	}
	node := c.nl.Node(id)
	if node.Kind.IsConeInput() {
		p := c.add(coneNode{kind: node.Kind})
		c.pos.set(id, p)
		return p
	}
	c.pos.set(id, onPath)
	base := len(c.stack)
	for _, f := range node.Fanin {
		p := c.visit(f)
		c.stack = append(c.stack, p)
	}
	lo := int32(len(c.fanin))
	c.fanin = append(c.fanin, c.stack[base:]...)
	c.stack = c.stack[:base]
	p := c.add(coneNode{kind: node.Kind, mask: node.Mask, lo: lo, hi: int32(len(c.fanin))})
	c.pos.set(id, p)
	return p
}

func (c *checker) add(n coneNode) int32 {
	n.ctrl = -1
	c.nodes = append(c.nodes, n)
	return int32(len(c.nodes) - 1)
}

// controlWires returns the intersection of the depth-bounded fan-in cones
// of the target gates, excluding the source word bits: the
// lowest-numbered MaxControlSet of them, in increasing ID order.
func (c *checker) controlWires(src, tgt Word, opt Options) []netlist.ID {
	// reach counts, for each node, how many consecutive targets from the
	// first one reach it; source bits carry -1 and are never expanded.
	c.reach.reset()
	for _, b := range src.Bits {
		c.reach.set(b, -1)
	}
	var out []netlist.ID
	for k, g := range tgt.Bits {
		c.seen.reset()
		frontier := append(c.frontier[:0], g)
		for d := 0; d < opt.ControlDepth; d++ {
			next := c.next[:0]
			for _, x := range frontier {
				for _, f := range c.nl.Fanin(x) {
					r, _ := c.reach.get(f)
					if _, seen := c.seen.get(f); r < 0 || seen {
						continue
					}
					c.seen.set(f, 0)
					next = append(next, f)
					if r == int32(k) {
						c.reach.set(f, r+1)
						if k == len(tgt.Bits)-1 {
							out = append(out, f)
						}
					}
				}
			}
			c.frontier, c.next = next, frontier
			frontier = next
		}
	}
	out = netlist.SortedIDs(out)
	if len(out) > opt.MaxControlSet {
		out = out[:opt.MaxControlSet]
	}
	return out
}

// trials produces control assignments lazily, 64 lanes at a time, in the
// reference order. Subsets are index combinations over n controls; mask
// bit i assigns the combination's i-th control.
type trials struct {
	n, max int
	size   int // 0 while the no-control trial is pending
	idx    []int
	mask   int
	done   bool
}

// fill writes the next up to 64 trials into set and val (lane l of set[j]
// says whether control j is assigned in that trial, lane l of val[j] its
// value) and returns the number of lanes used, 0 once the enumeration is
// exhausted.
func (t *trials) fill(set, val []uint64) int {
	clear(set)
	clear(val)
	lanes := 0
	for lanes < bitsim.Lanes && !t.done {
		if t.size == 0 {
			lanes++ // the no-control trial assigns nothing
			t.nextSize()
			continue
		}
		if t.mask < 1<<uint(t.size) {
			bit := uint64(1) << uint(lanes)
			for i, j := range t.idx {
				set[j] |= bit
				if t.mask>>uint(i)&1 == 1 {
					val[j] |= bit
				}
			}
			t.mask++
			lanes++
			continue
		}
		t.mask = 0
		if !t.nextComb() {
			t.nextSize()
		}
	}
	return lanes
}

func (t *trials) nextSize() {
	t.size++
	if t.size > t.max || t.size > t.n {
		t.done = true
		return
	}
	t.idx = t.idx[:0]
	for i := 0; i < t.size; i++ {
		t.idx = append(t.idx, i)
	}
	t.mask = 0
}

func (t *trials) nextComb() bool {
	i := t.size - 1
	for i >= 0 && t.idx[i] == t.n-t.size+i {
		i--
	}
	if i < 0 {
		return false
	}
	t.idx[i]++
	for j := i + 1; j < t.size; j++ {
		t.idx[j] = t.idx[j-1] + 1
	}
	return true
}

// slots is a dense per-node int32 map that clears in O(1): a slot is live
// only while it carries the current generation.
type slots struct {
	s   []uint64
	gen uint32
}

func newSlots(n int) slots { return slots{s: make([]uint64, n), gen: 1} }

func (m *slots) reset() {
	m.gen++
	if m.gen == 0 {
		clear(m.s)
		m.gen = 1
	}
}

// get returns the slot's value, or 0 and false when it is not live.
func (m *slots) get(id netlist.ID) (int32, bool) {
	v := m.s[id]
	if uint32(v>>32) != m.gen {
		return 0, false
	}
	return int32(uint32(v)), true
}

func (m *slots) set(id netlist.ID, v int32) { m.s[id] = uint64(m.gen)<<32 | uint64(uint32(v)) }
