package words_test

import (
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// reportSeeds returns the seed words the analysis pipeline hands to word
// propagation for nl: with SkipWordProp set, the words stage reports its
// seeds unexpanded.
func reportSeeds(tb testing.TB, nl *netlist.Netlist) []words.Word {
	tb.Helper()
	rep := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true, SkipModMatch: true})
	if rep.Degraded {
		tb.Fatalf("%s: seed analysis degraded", nl.Name)
	}
	return rep.Words
}

// BenchmarkPropagateAll measures word propagation alone, with the
// pipeline's default rounds and options, on riscfpu's report seeds (the
// largest labeled article).
func BenchmarkPropagateAll(b *testing.B) {
	nl, err := gen.Article("riscfpu")
	if err != nil {
		b.Fatal(err)
	}
	seeds := reportSeeds(b, nl)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		all, _ := words.PropagateAll(nl, seeds, 3, words.Options{})
		n = len(all)
	}
	b.ReportMetric(float64(n), "words")
}
