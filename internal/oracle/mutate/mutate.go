// Package mutate derives metamorphic mutants from labeled articles. Each
// mutation transforms a netlist in a way the analysis pipeline should be
// indifferent to — renumbering nodes, renaming nets, serializing through
// Verilog or BLIF and back, De-Morgan-rewriting the irregular control
// logic, or inserting electrical noise that structural simplification
// must cancel — and states the invariant a conformant pipeline upholds:
// an unchanged fingerprint, a changed fingerprint with unchanged scores,
// or scorecard equality against a reference build. revcheck runs every
// article through every mutation and fails when an invariant breaks, which
// catches exactly the class of bug golden-file tests cannot: an analysis
// that silently depends on node order, net names, or serialization
// round-trips.
package mutate

import (
	"bytes"
	"fmt"
	"math/rand"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

// Mutant is one transformed article plus the invariant it must satisfy.
type Mutant struct {
	// Netlist and Labels are the mutant article and its remapped ground
	// truth.
	Netlist *netlist.Netlist
	Labels  *gen.Labels
	// RefNetlist/RefLabels are what the mutant is compared against. Nil
	// means the parent article itself; the noise pipeline compares against
	// the simplified parent instead, because simplification also folds
	// pre-existing duplicate structure the raw parent still had.
	RefNetlist *netlist.Netlist
	RefLabels  *gen.Labels
	// SameFingerprint requires Netlist.Fingerprint() to equal the
	// reference's: the mutation promises not to change functional content
	// or names.
	SameFingerprint bool
	// ChangedFingerprint requires the fingerprint to differ from the
	// reference's: the mutation deliberately alters names or structure,
	// and an unchanged hash would mean the fingerprint is under-reading
	// the netlist.
	ChangedFingerprint bool
	// ExactScores requires the mutant's scorecard to deeply equal the
	// reference's. When false, only the quality ratios (per-class
	// P/R/F1, word recall, trojan scores, macro F1) must match within
	// ScoreEps: the mutation legitimately changes how many raw modules
	// the portfolio carves out, without being allowed to change how well
	// they score.
	ExactScores bool
	// ScoreEps is the tolerance for the quality-ratio comparison when
	// ExactScores is false. Zero means the ratios must match exactly.
	ScoreEps float64
}

// Mutation names one metamorphic transformation.
type Mutation struct {
	Name string
	// Description is one line for the revcheck scorecard.
	Description string
	Apply       func(nl *netlist.Netlist, lab *gen.Labels, seed int64) (*Mutant, error)
}

// All lists the mutations revcheck runs, in a fixed order.
func All() []Mutation {
	return []Mutation{
		{
			Name:        "reorder",
			Description: "rebuild with shuffled gate creation order; fingerprint and scores must hold",
			Apply:       applyReorder,
		},
		{
			Name:        "rename",
			Description: "give every internal node a fresh name; fingerprint must change, scores must not",
			Apply:       applyRename,
		},
		{
			Name:        "roundtrip",
			Description: "serialize through Verilog and through BLIF; both reads must agree exactly",
			Apply:       applyRoundTrip,
		},
		{
			Name:        "nandify",
			Description: "De Morgan rewrite of the irregular control logic; quality scores must hold",
			Apply:       applyNandify,
		},
		{
			Name:        "lutify",
			Description: "LUT-map every gate; fingerprint must change, quality scores must hold",
			Apply:       applyLutify,
		},
		{
			Name:        "noise-simplify",
			Description: "insert electrical noise, then simplify; must match the simplified parent",
			Apply:       applyNoiseSimplify,
		},
	}
}

// Named returns the mutation with the given name.
func Named(name string) (Mutation, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mutation{}, fmt.Errorf("mutate: unknown mutation %q", name)
}

// applyReorder rebuilds the netlist emitting gates in a seed-shuffled
// topological order. Inputs, constants and latches keep their relative
// order; every combinational gate is placed as soon as its fanins exist,
// choosing randomly among the ready ones. Names and structure are
// untouched, so the fingerprint must not move.
func applyReorder(nl *netlist.Netlist, lab *gen.Labels, seed int64) (*Mutant, error) {
	rng := rand.New(rand.NewSource(seed))
	out := netlist.New(nl.Name)
	m := make(map[netlist.ID]netlist.ID, nl.Len())

	deps := make([]int, nl.Len())
	dependents := make([][]netlist.ID, nl.Len())
	var gatesReady []netlist.ID
	var latches []netlist.ID

	release := func(id netlist.ID) {
		for _, d := range dependents[id] {
			deps[d]--
			if deps[d] == 0 {
				gatesReady = append(gatesReady, d)
			}
		}
	}

	// Pass 1: sources in original order. Latches get a placeholder D
	// (rewired below); the placeholder must be an existing node so the
	// rebuild adds no extra constants.
	placeholder := netlist.Nil
	for i := 0; i < nl.Len(); i++ {
		id := netlist.ID(i)
		node := nl.Node(id)
		switch node.Kind {
		case netlist.Input:
			m[id] = out.AddInput(node.Name)
		case netlist.Const0, netlist.Const1:
			m[id] = out.AddConst(node.Kind == netlist.Const1)
			if node.Name != "" {
				out.SetName(m[id], node.Name)
			}
		case netlist.Latch:
			latches = append(latches, id)
			continue
		default:
			deps[id] = len(node.Fanin)
			for _, f := range node.Fanin {
				dependents[f] = append(dependents[f], id)
			}
			continue
		}
		if placeholder == netlist.Nil {
			placeholder = m[id]
		}
	}
	if placeholder == netlist.Nil && len(latches) > 0 {
		return nil, fmt.Errorf("mutate: reorder needs an input or constant for latch rewiring")
	}
	for _, id := range latches {
		l := out.AddLatch(placeholder)
		if name := nl.Node(id).Name; name != "" {
			out.SetName(l, name)
		}
		m[id] = l
	}
	// Releasing the sources readies every gate fed only by them; a gate
	// always has at least one fanin, so no gate starts ready on its own.
	for i := 0; i < nl.Len(); i++ {
		id := netlist.ID(i)
		switch nl.Node(id).Kind {
		case netlist.Input, netlist.Const0, netlist.Const1, netlist.Latch:
			release(id)
		}
	}

	// Pass 2: gates in random ready order.
	for len(gatesReady) > 0 {
		k := rng.Intn(len(gatesReady))
		id := gatesReady[k]
		gatesReady[k] = gatesReady[len(gatesReady)-1]
		gatesReady = gatesReady[:len(gatesReady)-1]
		node := nl.Node(id)
		fan := make([]netlist.ID, len(node.Fanin))
		for i, f := range node.Fanin {
			fan[i] = m[f]
		}
		g := out.AddGateLike(node, fan...)
		if node.Name != "" {
			out.SetName(g, node.Name)
		}
		m[id] = g
		release(id)
	}
	for _, id := range latches {
		out.SetLatchD(m[id], m[nl.Fanin(id)[0]])
	}
	for _, p := range nl.Outputs() {
		out.MarkOutput(p.Name, m[p.Driver])
	}
	if out.Len() != nl.Len() {
		return nil, fmt.Errorf("mutate: reorder dropped nodes (%d -> %d): combinational cycle?",
			nl.Len(), out.Len())
	}
	// The raw module inventory is allowed to move: the seed portfolio's
	// candidate enumeration visits nodes in ID order under caps, so
	// renumbering shifts which redundant composite candidates (word-ops
	// over the same gates) get emitted. Quality ratios must hold exactly.
	return &Mutant{
		Netlist:         out,
		Labels:          remapOne(lab, m),
		SameFingerprint: true,
	}, nil
}

// applyRename gives every gate and latch a fresh synthetic name. The
// fingerprint is name-sensitive by design (a report is only reusable for
// a netlist with matching names), so it must change; the analysis itself
// is structural, so the scorecard must not.
func applyRename(nl *netlist.Netlist, lab *gen.Labels, seed int64) (*Mutant, error) {
	out := nl.Clone()
	for i := 0; i < out.Len(); i++ {
		id := netlist.ID(i)
		switch out.Node(id).Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			// Input names are the article's port interface; keep them.
		default:
			out.SetName(id, fmt.Sprintf("mut%d_%d", seed, id))
		}
	}
	ident := make(map[netlist.ID]netlist.ID, nl.Len())
	for i := 0; i < nl.Len(); i++ {
		ident[netlist.ID(i)] = netlist.ID(i)
	}
	return &Mutant{
		Netlist:            out,
		Labels:             remapOne(lab, ident),
		ChangedFingerprint: true,
		ExactScores:        true,
	}, nil
}

// applyRoundTrip serializes the article to Verilog and to BLIF and reads
// both back. The two parses resolve nets in different orders and lower
// covers differently, yet must agree on everything: identical
// fingerprints and identical scorecards. (Neither is compared against the
// raw parent: serialization materializes output aliases as buffers, which
// is a faithful, but not byte-identical, rendering.)
func applyRoundTrip(nl *netlist.Netlist, lab *gen.Labels, _ int64) (*Mutant, error) {
	var vbuf, bbuf bytes.Buffer
	if err := nl.WriteVerilog(&vbuf); err != nil {
		return nil, fmt.Errorf("mutate: writing verilog: %w", err)
	}
	if err := nl.WriteBLIF(&bbuf); err != nil {
		return nil, fmt.Errorf("mutate: writing blif: %w", err)
	}
	fromV, err := netlist.ReadVerilog(&vbuf)
	if err != nil {
		return nil, fmt.Errorf("mutate: re-reading verilog: %w", err)
	}
	fromB, err := netlist.ReadBLIF(&bbuf)
	if err != nil {
		return nil, fmt.Errorf("mutate: re-reading blif: %w", err)
	}
	vlab, err := remapByName(lab, nl, fromV)
	if err != nil {
		return nil, fmt.Errorf("mutate: verilog round-trip: %w", err)
	}
	blab, err := remapByName(lab, nl, fromB)
	if err != nil {
		return nil, fmt.Errorf("mutate: blif round-trip: %w", err)
	}
	return &Mutant{
		Netlist:         fromV,
		Labels:          vlab,
		RefNetlist:      fromB,
		RefLabels:       blab,
		SameFingerprint: true,
		ExactScores:     true,
	}, nil
}

// applyNandify rewrites every And and Or gate of the labeled control-noise
// region through De Morgan: And(f...) becomes Not(Nand(f...)), Or(f...)
// becomes Nand(Not(f)...). Components are untouched, so every quality
// ratio must hold; the raw module counts inside the rewritten region may
// legitimately move.
func applyNandify(nl *netlist.Netlist, lab *gen.Labels, _ int64) (*Mutant, error) {
	noise := make(map[netlist.ID]bool, len(lab.Noise))
	for _, id := range lab.Noise {
		noise[id] = true
	}
	if len(noise) == 0 {
		return nil, fmt.Errorf("mutate: nandify needs labeled control noise")
	}
	out := netlist.New(nl.Name)
	// images[id] lists every new node standing for id, value carrier last.
	images := make(map[netlist.ID][]netlist.ID, nl.Len())
	valueOf := func(id netlist.ID) netlist.ID {
		img := images[id]
		return img[len(img)-1]
	}
	var latches []netlist.ID
	placeholder := netlist.Nil
	for _, id := range nl.TopoOrder() {
		node := nl.Node(id)
		switch node.Kind {
		case netlist.Input:
			images[id] = []netlist.ID{out.AddInput(node.Name)}
		case netlist.Const0, netlist.Const1:
			images[id] = []netlist.ID{out.AddConst(node.Kind == netlist.Const1)}
		case netlist.Latch:
			if placeholder == netlist.Nil {
				placeholder = out.AddConst(false)
			}
			l := out.AddLatch(placeholder)
			if node.Name != "" {
				out.SetName(l, node.Name)
			}
			images[id] = []netlist.ID{l}
			latches = append(latches, id)
		default:
			fan := make([]netlist.ID, len(node.Fanin))
			for i, f := range node.Fanin {
				fan[i] = valueOf(f)
			}
			switch {
			case noise[id] && node.Kind == netlist.And:
				x := out.AddGate(netlist.Nand, fan...)
				v := out.AddGate(netlist.Not, x)
				if node.Name != "" {
					out.SetName(v, node.Name)
				}
				images[id] = []netlist.ID{x, v}
			case noise[id] && node.Kind == netlist.Or:
				inv := make([]netlist.ID, len(fan))
				img := make([]netlist.ID, 0, len(fan)+1)
				for i, f := range fan {
					inv[i] = out.AddGate(netlist.Not, f)
					img = append(img, inv[i])
				}
				v := out.AddGate(netlist.Nand, inv...)
				if node.Name != "" {
					out.SetName(v, node.Name)
				}
				images[id] = append(img, v)
			default:
				g := out.AddGateLike(node, fan...)
				if node.Name != "" {
					out.SetName(g, node.Name)
				}
				images[id] = []netlist.ID{g}
			}
		}
	}
	for _, id := range latches {
		out.SetLatchD(valueOf(id), valueOf(nl.Fanin(id)[0]))
	}
	for _, p := range nl.Outputs() {
		out.MarkOutput(p.Name, valueOf(p.Driver))
	}
	// Suspect-set node fractions shift a little when borderline modules
	// straddling noise and trojan logic change size, so the trojan F1 gets
	// a small tolerance; everything else must hold within it too.
	return &Mutant{
		Netlist:            out,
		Labels:             lab.Remap(func(id netlist.ID) []netlist.ID { return images[id] }),
		ChangedFingerprint: true,
		ScoreEps:           0.02,
	}, nil
}

// applyLutify runs the article through gen.LutMapped: every combinational
// gate except Buf becomes a truth-table cell, erasing the structural gate
// alphabet while preserving the function bit-for-bit. The analysis is
// functional, so per-class quality ratios must hold (within a small
// tolerance: cut enumeration over opaque k-input cells can legitimately
// shift which redundant composite candidates clear the caps). On an
// already LUT-mapped article the transform is the identity, so the
// fingerprint and scorecard must not move at all.
func applyLutify(nl *netlist.Netlist, lab *gen.Labels, _ int64) (*Mutant, error) {
	convertible := false
	for i := 0; i < nl.Len(); i++ {
		k := nl.Kind(netlist.ID(i))
		if k.IsGate() && k != netlist.Buf && k != netlist.Lut {
			convertible = true
			break
		}
	}
	mapped, img := gen.LutMapped(nl)
	mapped.Name = nl.Name // compare structure, not the _lut rename
	mut := &Mutant{
		Netlist: mapped,
		Labels:  lab.Remap(func(id netlist.ID) []netlist.ID { return img[id] }),
	}
	if convertible {
		mut.ChangedFingerprint = true
		mut.ScoreEps = 0.05
	} else {
		mut.SameFingerprint = true
		mut.ExactScores = true
	}
	return mut, nil
}

// applyNoiseSimplify inserts electrical noise cells (buffers, delay
// chains, paired inverters) and runs structural simplification. The
// reference is the simplified parent, not the raw parent: simplification
// also merges duplicate structure the original articles genuinely contain,
// and the invariant is that noise leaves no trace beyond that.
func applyNoiseSimplify(nl *netlist.Netlist, lab *gen.Labels, seed int64) (*Mutant, error) {
	noisy, toNoisy := gen.AddElectricalNoiseMapped(nl, seed, 0.15)
	mres := simplify.Run(noisy)
	rres := simplify.Run(nl)
	compose := func(id netlist.ID) []netlist.ID {
		ni, ok := toNoisy[id]
		if !ok {
			return nil
		}
		si, ok := mres.NodeMap[ni]
		if !ok {
			return nil
		}
		return []netlist.ID{si}
	}
	refMap := func(id netlist.ID) []netlist.ID {
		si, ok := rres.NodeMap[id]
		if !ok {
			return nil
		}
		return []netlist.ID{si}
	}
	return &Mutant{
		Netlist:         mres.Netlist,
		Labels:          lab.Remap(compose),
		RefNetlist:      rres.Netlist,
		RefLabels:       lab.Remap(refMap),
		SameFingerprint: true,
		ExactScores:     true,
	}, nil
}

// remapOne remaps labels through a one-to-one node map.
func remapOne(lab *gen.Labels, m map[netlist.ID]netlist.ID) *gen.Labels {
	return lab.Remap(func(id netlist.ID) []netlist.ID {
		nid, ok := m[id]
		if !ok {
			return nil
		}
		return []netlist.ID{nid}
	})
}

// remapByName remaps labels from src to dst by net name: serialization
// names every unnamed node n<id>, so NameOf on the source side matches the
// parsed node names on the destination side.
func remapByName(lab *gen.Labels, src, dst *netlist.Netlist) (*gen.Labels, error) {
	var missing error
	out := lab.Remap(func(id netlist.ID) []netlist.ID {
		nid := dst.FindByName(src.NameOf(id))
		if nid == netlist.Nil {
			if missing == nil {
				missing = fmt.Errorf("mutate: node %s lost in round-trip", src.NameOf(id))
			}
			return nil
		}
		return []netlist.ID{nid}
	})
	return out, missing
}
