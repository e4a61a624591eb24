package query

import (
	"math/rand"
	"testing"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/workload"
)

// FuzzParse feeds arbitrary expressions to the path parser: it must never
// panic, and anything it accepts must round-trip through String/Parse to
// the same canonical form.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"/a/b//c", "book//title", "//item[@id='3']/name", "//*", "a[", "[]",
		"//a[@b][@c='d']", "/", "///", "a//", "@", "a[@x=\"y\"]", "日本//語",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Parse(expr)
		if err != nil {
			return
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", canon, expr, err)
		}
		if p2.String() != canon {
			t.Fatalf("canonical form not stable: %q -> %q", canon, p2.String())
		}
		if len(p.Steps) == 0 {
			t.Fatalf("accepted %q with zero steps", expr)
		}
	})
}

// FuzzJoinPipeline is the lazy-pipeline differential fuzzer: a random
// document (shape and seed fuzzer-chosen) and a random path — steps may
// carry attribute predicates, so the zig-zag/pushdown/memo machinery is
// on the fuzzed surface — must yield identical streams from the
// cursor-composed production join (its verdict memo shared across both
// indexes, as within one Txn) and the materialized PR-3 oracle, under a
// full drain and under a random Next/Seek interleaving, on both the flat
// TagIndex and a finely chunked index. The checked-in corpus
// (testdata/fuzz/FuzzJoinPipeline) pins the seeds that cover
// rooted/relative anchors, child/descendant mixes, fence-skip Seeks and
// predicate-bearing steps over attribute-carrying documents.
func FuzzJoinPipeline(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0))
	f.Add(int64(42), int64(7), uint8(1))
	f.Add(int64(11), int64(23), uint8(2))
	f.Add(int64(99), int64(3), uint8(3))
	f.Fuzz(func(t *testing.T, docSeed, pathSeed int64, shape uint8) {
		cfgs := []workload.DocConfig{
			{Elements: 150, MaxDepth: 10, MaxFanout: 4, TextProb: 0.2, AttrProb: 0.5}, // deep chains
			{Elements: 250, MaxDepth: 3, MaxFanout: 40, TextProb: 0.1, AttrProb: 0.3}, // flat and wide
			{Elements: 200, MaxDepth: 6, MaxFanout: 8, TextProb: 0.4, AttrProb: 0.7},  // balanced, attr-heavy
			{Elements: 30, MaxDepth: 12, MaxFanout: 2},                                // tiny, near-list, no attrs
		}
		var d *document.Doc
		var err error
		if int(shape)%5 == 4 {
			d, err = document.Load(workload.XMarkLite(1, docSeed), p42)
		} else {
			d, err = document.Load(workload.GenerateDoc(cfgs[int(shape)%len(cfgs)], docSeed), p42)
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(pathSeed))
		tags := append([]string{"*", "root", "missing", "item", "name"}, workload.DefaultTags...)
		expr := randomPathExpr(rng, tags)
		p, err := Parse(expr)
		if err != nil {
			return
		}
		flat := d.BuildTagIndex()
		chunked := index.FromSized(d.BuildTagIndex(), 1+int(shape%7))
		memo := NewPredMemo()
		for _, ix := range []struct {
			tag string
			idx Index
		}{{"flat", flat}, {"chunked", chunked}} {
			want := oracleEntries(t, d, ix.idx, p)
			drainMatches(t, ix.tag, expr, JoinCursorWith(ix.idx, p, prodOpts(memo)), want)
			torturePartial(t, ix.tag, expr, JoinCursorWith(ix.idx, p, prodOpts(memo)), want, rng)
		}
	})
}
