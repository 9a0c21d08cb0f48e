package words

import (
	"math/rand"
	"reflect"
	"testing"

	"netlistre/internal/netlist"
)

// fuzzNetlist builds a random DAG in the shape of bitsim's randNetlist
// (gates over a few inputs, latches mixed in), with LUTs added, and grows
// bitwise layers from a seed word so propagation candidates exist: each
// layer applies one gate kind to every bit of the previous word, with side
// inputs drawn from a shared control or from the random pool.
func fuzzNetlist(rng *rand.Rand) (*netlist.Netlist, []Word) {
	nl := netlist.New("fuzz")
	nIn := 3 + rng.Intn(4)
	pool := make([]netlist.ID, 0, 64)
	for i := 0; i < nIn; i++ {
		pool = append(pool, nl.AddInput("in"+string(rune('a'+i))))
	}
	width := 2 + rng.Intn(3)
	seed := make([]netlist.ID, width)
	for i := range seed {
		seed[i] = nl.AddInput("w" + string(rune('a'+i)))
	}
	pool = append(pool, seed...)
	kinds := []netlist.Kind{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	pick := func() netlist.ID { return pool[rng.Intn(len(pool))] }
	gate := func(k netlist.Kind, first netlist.ID, side func() netlist.ID) netlist.ID {
		if k == netlist.Not || k == netlist.Buf {
			return nl.AddGate(k, first)
		}
		ins := []netlist.ID{first}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			ins = append(ins, side())
		}
		rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
		return nl.AddGate(k, ins...)
	}
	soup := func(n int) {
		for g := 0; g < n; g++ {
			var id netlist.ID
			if rng.Intn(6) == 0 {
				k := 1 + rng.Intn(3)
				ins := make([]netlist.ID, k)
				for i := range ins {
					ins[i] = pick()
				}
				id = nl.AddLut(rng.Uint64()&(1<<(1<<uint(k))-1), ins...)
			} else {
				id = gate(kinds[rng.Intn(len(kinds))], pick(), pick)
			}
			if rng.Intn(12) == 0 {
				id = nl.AddLatch(id)
			}
			pool = append(pool, id)
		}
	}
	soup(5 + rng.Intn(15))
	cur := seed
	for layer := 1 + rng.Intn(3); layer > 0; layer-- {
		k := kinds[rng.Intn(len(kinds))]
		ctl := pick()
		next := make([]netlist.ID, width)
		for i, b := range cur {
			side := pick
			if rng.Intn(3) != 0 {
				side = func() netlist.ID { return ctl }
			}
			next[i] = gate(k, b, side)
		}
		pool = append(pool, next...)
		soup(rng.Intn(6))
		cur = next
	}
	return nl, []Word{{Bits: seed, Origin: "seed"}, {Bits: cur, Origin: "last"}}
}

// FuzzPropagate compares PropagateAll with the scalar reference on random
// small netlists and random option settings.
func FuzzPropagate(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s, uint8(s))
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		nl, seeds := fuzzNetlist(rng)
		opt := Options{
			ControlDepth:  1 + int(knobs&3),
			MaxControls:   1 + int(knobs>>2&3),
			MaxControlSet: 2 + int(knobs>>4),
		}
		gotW, gotP := PropagateAll(nl, seeds, 3, opt)
		wantW, wantP := ReferencePropagateAll(nl, seeds, 3, opt)
		if !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("words differ:\n got %v\nwant %v", gotW, wantW)
		}
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("propagations differ:\n got %+v\nwant %+v", gotP, wantP)
		}
	})
}

// TestFuzzNetlistsPropagate runs the fuzz body over a fixed seed range so
// plain `go test` covers more than the corpus, and checks that the
// generator yields propagations at all.
func TestFuzzNetlistsPropagate(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 100
	}
	props := 0
	for seed := int64(0); seed < int64(n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl, seeds := fuzzNetlist(rng)
		opt := Options{MaxControlSet: 4}
		gotW, gotP := PropagateAll(nl, seeds, 3, opt)
		wantW, wantP := ReferencePropagateAll(nl, seeds, 3, opt)
		if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("seed %d: result differs from the reference", seed)
		}
		for _, p := range gotP {
			if len(p.Controls) > 0 {
				props++
			}
		}
	}
	if props < n/10 {
		t.Fatalf("only %d controlled propagations over %d netlists; generator too weak", props, n)
	}
	t.Logf("%d controlled propagations over %d netlists", props, n)
}
