package overlap_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/overlap"
)

// selectionDigest hashes a selection in report order: type, name, width
// and elements of every module.
func selectionDigest(mods []*module.Module) string {
	h := sha256.New()
	for _, m := range mods {
		fmt.Fprintf(h, "%v|%s|%d|%v\n", m.Type, m.Name, m.Width, m.Elements)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestNodeLimitedArticles pins the overlap resolution of the five gate
// articles whose largest component stops at the default node limit. The
// incumbent there depends on the exact search tree, so the selection, its
// coverage, the non-optimal flag and the node count move if the search
// visits a different node or visits nodes in a different order.
func TestNodeLimitedArticles(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes five articles")
	}
	for _, tc := range []struct {
		article  string
		digest   string
		coverage int
		nodes    int64
	}{
		{"mips16", "f069d605bcddc4e1", 1723, 225221},
		{"riscfpu", "5e49175b3ebfd18e", 6553, 250044},
		{"router", "48b4aebfec238466", 2270, 250026},
		{"oc8051", "fcc425f22ff993bb", 1372, 250100},
		{"aemb", "1cd0ce5fc38fd0f8", 556, 202663},
	} {
		t.Run(tc.article, func(t *testing.T) {
			nl, _, err := gen.LabeledArticle(tc.article)
			if err != nil {
				t.Fatal(err)
			}
			opt := core.Options{Workers: 1}
			opt.Overlap.Sliceable = true
			rep := core.Analyze(nl, opt)
			if rep.OverlapOptimal {
				t.Error("OverlapOptimal = true, want false (node limit hit)")
			}
			res, err := overlap.Resolve(rep.All, opt.Overlap)
			if err != nil {
				t.Fatal(err)
			}
			if d := selectionDigest(rep.Resolved); d != selectionDigest(res.Selected) {
				t.Errorf("Resolve on the report's modules selects %s, the report %s", selectionDigest(res.Selected), d)
			}
			got := fmt.Sprintf("digest=%s coverage=%d optimal=%v nodes=%d", selectionDigest(res.Selected), res.Coverage, res.Optimal, res.Nodes)
			want := fmt.Sprintf("digest=%s coverage=%d optimal=false nodes=%d", tc.digest, tc.coverage, tc.nodes)
			if got != want {
				t.Errorf("got  %s\nwant %s", got, want)
			}
		})
	}
}
