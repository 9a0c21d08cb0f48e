package words

// The scalar reference for checkPropagation: one whole-netlist five-valued
// sim.Run per control assignment, in the enumeration order the production
// check must reproduce. The differential tests compare the two on
// articles, SoC partitions and random netlists.

import (
	"netlistre/internal/netlist"
	"netlistre/internal/sim"
)

// ReferencePropagateAll is PropagateAll with the scalar reference check.
func ReferencePropagateAll(nl *netlist.Netlist, seeds []Word, rounds int, opt Options) ([]Word, []Propagation) {
	opt.defaults()
	return propagateAll(nl, seeds, rounds, opt, func(src, tgt Word, opt Options, backward bool) (Propagation, bool) {
		return checkPropagationScalar(nl, src, tgt, opt, backward)
	})
}

func checkPropagationScalar(nl *netlist.Netlist, src, tgt Word, opt Options, backward bool) (Propagation, bool) {
	assignable := controlWires(nl, src, tgt, opt)

	base := make(map[netlist.ID]sim.Value, len(src.Bits))
	for _, b := range src.Bits {
		base[b] = sim.D
	}

	try := func(ctrl map[netlist.ID]bool) (Propagation, bool) {
		assign := make(map[netlist.ID]sim.Value, len(base)+len(ctrl))
		for k, v := range base {
			assign[k] = v
		}
		for c, v := range ctrl {
			if v {
				assign[c] = sim.One
			} else {
				assign[c] = sim.Zero
			}
		}
		vals := sim.Run(nl, assign)
		neg := make([]bool, len(tgt.Bits))
		for i, g := range tgt.Bits {
			switch vals[g] {
			case sim.D:
				neg[i] = false
			case sim.DBar:
				neg[i] = true
			default:
				return Propagation{}, false
			}
		}
		return Propagation{
			Source:   src,
			Target:   tgt,
			Controls: ctrl,
			Negated:  neg,
			Backward: backward,
		}, true
	}

	// No controls first.
	if p, ok := try(map[netlist.ID]bool{}); ok {
		return p, true
	}
	// Subsets of size 1..MaxControls, all binary assignments.
	n := len(assignable)
	for size := 1; size <= opt.MaxControls && size <= n; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			if opt.Interrupt != nil && opt.Interrupt() {
				return Propagation{}, false
			}
			for mask := 0; mask < 1<<uint(size); mask++ {
				ctrl := make(map[netlist.ID]bool, size)
				for i, ii := range idx {
					ctrl[assignable[ii]] = mask>>uint(i)&1 == 1
				}
				if p, ok := try(ctrl); ok {
					return p, true
				}
			}
			// Next combination.
			i := size - 1
			for i >= 0 && idx[i] == n-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return Propagation{}, false
}

// controlWires is the map-based control-wire search the reference uses.
func controlWires(nl *netlist.Netlist, src, tgt Word, opt Options) []netlist.ID {
	inSrc := make(map[netlist.ID]bool, len(src.Bits))
	for _, b := range src.Bits {
		inSrc[b] = true
	}
	counts := make(map[netlist.ID]int)
	for _, g := range tgt.Bits {
		seen := make(map[netlist.ID]bool)
		frontier := []netlist.ID{g}
		for d := 0; d < opt.ControlDepth; d++ {
			var nextLayer []netlist.ID
			for _, x := range frontier {
				for _, f := range nl.Fanin(x) {
					if inSrc[f] || seen[f] {
						continue
					}
					seen[f] = true
					nextLayer = append(nextLayer, f)
				}
			}
			frontier = nextLayer
		}
		for x := range seen {
			counts[x]++
		}
	}
	var out []netlist.ID
	for x, c := range counts {
		if c == len(tgt.Bits) {
			out = append(out, x)
		}
	}
	out = netlist.SortedIDs(out)
	if len(out) > opt.MaxControlSet {
		out = out[:opt.MaxControlSet]
	}
	return out
}
