package words_test

// Differential tests pinning the cone-restricted, 64-lane propagation
// check to the scalar whole-netlist reference: word lists and
// propagations (order, controls, negation, direction) must be deeply
// equal on the report seeds of every labeled article and of the seven
// noisy-BigSoC partitions.

import (
	"reflect"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/partition"
	"netlistre/internal/simplify"
	"netlistre/internal/words"
)

// smallArticles are the labeled articles the -short run keeps.
var smallArticles = map[string]bool{"usb": true, "evoter": true, "usb-lut": true, "evoter-lut": true}

// checkSameAsReference runs both checks on seeds and fails on the first
// difference.
func checkSameAsReference(t *testing.T, nl *netlist.Netlist, seeds []words.Word) {
	t.Helper()
	gotW, gotP := words.PropagateAll(nl, seeds, 3, words.Options{})
	wantW, wantP := words.ReferencePropagateAll(nl, seeds, 3, words.Options{})
	if !reflect.DeepEqual(gotW, wantW) {
		t.Fatalf("words differ: %d words, reference %d", len(gotW), len(wantW))
	}
	if len(gotP) != len(wantP) {
		t.Fatalf("%d propagations, reference %d", len(gotP), len(wantP))
	}
	for i := range gotP {
		if !reflect.DeepEqual(gotP[i], wantP[i]) {
			t.Fatalf("propagation %d: got %+v, reference %+v", i, gotP[i], wantP[i])
		}
	}
	t.Logf("%d seeds, %d words, %d propagations", len(seeds), len(gotW), len(gotP))
}

func TestPropagateMatchesReferenceArticles(t *testing.T) {
	for _, name := range gen.LabeledArticleNames() {
		if testing.Short() && !smallArticles[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			nl, _, err := gen.LabeledArticle(name)
			if err != nil {
				t.Fatal(err)
			}
			checkSameAsReference(t, nl, reportSeeds(t, nl))
		})
	}
}

func TestPropagateMatchesReferenceSoCPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("BigSoC partitions are slow; skipped in -short mode")
	}
	cores := gen.BigSoCCoreNames()
	nl := simplify.Run(gen.SoC("bigsoc", cores, 1, 0.22)).Netlist
	resets := make([]netlist.ID, len(cores))
	for i, c := range cores {
		if resets[i] = nl.FindByName("rst_" + c); resets[i] == netlist.Nil {
			t.Fatalf("no reset input rst_%s", c)
		}
	}
	sum := partition.ByResets(nl, resets)
	if len(sum.Partitions) != len(cores) {
		t.Fatalf("%d partitions, want %d", len(sum.Partitions), len(cores))
	}
	for _, p := range sum.Partitions {
		t.Run(p.Name, func(t *testing.T) {
			sub, _ := partition.Extract(nl, p)
			checkSameAsReference(t, sub, reportSeeds(t, sub))
		})
	}
}

// TestPropagateInterruptPrefix: an Interrupt that fires after k polls
// must leave a prefix of the uninterrupted result, for every k up to the
// number of polls a full run makes.
func TestPropagateInterruptPrefix(t *testing.T) {
	nl, err := gen.Article("usb")
	if err != nil {
		t.Fatal(err)
	}
	seeds := reportSeeds(t, nl)
	wantW, wantP := words.ReferencePropagateAll(nl, seeds, 3, words.Options{})
	total := 0
	words.PropagateAll(nl, seeds, 3, words.Options{Interrupt: func() bool { total++; return false }})
	if total < 10 {
		t.Fatalf("only %d polls in a full run", total)
	}
	for k := 0; k <= total; k += 1 + total/40 {
		polls := 0
		opt := words.Options{Interrupt: func() bool { polls++; return polls > k }}
		gotW, gotP := words.PropagateAll(nl, seeds, 3, opt)
		if len(gotW) > len(wantW) || !reflect.DeepEqual(gotW, wantW[:len(gotW)]) {
			t.Fatalf("k=%d: %d words are not a prefix of the %d uninterrupted ones", k, len(gotW), len(wantW))
		}
		if len(gotP) > len(wantP) {
			t.Fatalf("k=%d: %d propagations, uninterrupted %d", k, len(gotP), len(wantP))
		}
		for i := range gotP {
			if !reflect.DeepEqual(gotP[i], wantP[i]) {
				t.Fatalf("k=%d: propagation %d is not the uninterrupted one: %+v", k, i, gotP[i])
			}
		}
	}
}
