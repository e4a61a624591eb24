package query

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// randomPathExpr builds a random (possibly malformed) path expression
// over the tag alphabet — steps may carry attribute predicates ([@k],
// [@k='v']), so the zig-zag join's pushdown path is on the differential
// surface. Shared by the differential test and the fuzz target.
func randomPathExpr(rng *rand.Rand, tags []string) string {
	steps := rng.Intn(4) + 1
	var sb strings.Builder
	if rng.Intn(2) == 0 {
		sb.WriteString("/")
		if rng.Intn(2) == 0 {
			sb.WriteString("/")
		}
	}
	for i := 0; i < steps; i++ {
		if i > 0 {
			if rng.Intn(2) == 0 {
				sb.WriteString("/")
			} else {
				sb.WriteString("//")
			}
		}
		sb.WriteString(tags[rng.Intn(len(tags))])
		if rng.Intn(3) == 0 {
			sb.WriteString(randomPredExpr(rng))
			if rng.Intn(4) == 0 {
				sb.WriteString(randomPredExpr(rng)) // conjunction
			}
		}
	}
	return sb.String()
}

// randomPredExpr picks one attribute predicate over the alphabets the
// workload generator (id/cat/role, v0..v7, rare) and XMarkLite (id=itemN
// etc) actually emit, plus always-absent keys and values, so predicates
// hit matching, partially-matching and definitely-absent chunks.
func randomPredExpr(rng *rand.Rand) string {
	names := []string{"id", "cat", "role", "nope"}
	name := names[rng.Intn(len(names))]
	switch rng.Intn(3) {
	case 0:
		return "[@" + name + "]"
	case 1:
		vals := []string{"v0", "v1", "rare", "item3", "person1", "ghost"}
		return "[@" + name + "='" + vals[rng.Intn(len(vals))] + "']"
	default:
		return "[@" + name + "='v" + string(rune('0'+rng.Intn(8))) + "']"
	}
}

// prodOpts is the evaluation every differential test holds against the
// materialized oracle: the production pipeline (zig-zag join, predicate
// pushdown) with one verdict memo shared across every query on the
// document, as a Txn runs it.
func prodOpts(memo *PredMemo) EvalOptions { return EvalOptions{Memo: memo} }

// oracleEntries materializes the eager evaluator's result with labels —
// the reference stream the lazy pipeline must reproduce under any
// consumption pattern.
func oracleEntries(t *testing.T, d *document.Doc, idx Index, p *Path) []document.Entry {
	t.Helper()
	nodes := JoinMaterialized(d, idx, p)
	out := make([]document.Entry, len(nodes))
	for i, n := range nodes {
		lab, err := d.Label(n)
		if err != nil {
			t.Fatalf("oracle result %d unbound: %v", i, err)
		}
		out[i] = document.Entry{Node: n, Label: lab, Level: n.Level()}
	}
	return out
}

// drainMatches fully drains a cursor and compares against the oracle.
func drainMatches(t *testing.T, tag, expr string, cur document.Cursor, want []document.Entry) {
	t.Helper()
	for i := 0; ; i++ {
		e, ok := cur.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("[%s] %q: lazy drained %d results, oracle %d", tag, expr, i, len(want))
			}
			return
		}
		if i >= len(want) || e.Node != want[i].Node {
			t.Fatalf("[%s] %q: lazy result %d disagrees with oracle", tag, expr, i)
		}
	}
}

// torturePartial drives a fresh lazy cursor with a random Next/Seek
// interleaving and checks every yield against the forward-only contract
// over the oracle stream: Seek(b) must land on the first unconsumed
// match with Begin >= b, Next on the next unconsumed match.
func torturePartial(t *testing.T, tag, expr string, cur document.Cursor, want []document.Entry, rng *rand.Rand) {
	t.Helper()
	pos := 0
	for step := 0; step < 40; step++ {
		if rng.Intn(3) == 0 && len(want) > 0 {
			// Seek to a begin picked off the oracle (sometimes nudged to
			// fall between matches, behind the cursor, or past the end).
			b := want[rng.Intn(len(want))].Label.Begin
			switch rng.Intn(4) {
			case 0:
				b++
			case 1:
				b = 0
			case 2:
				b += 1 << 20
			}
			at := sort.Search(len(want), func(i int) bool { return want[i].Label.Begin >= b })
			if at < pos {
				at = pos // forward-only: seeking behind degrades to Next
			}
			e, ok := cur.Seek(b)
			if at >= len(want) {
				if ok {
					t.Fatalf("[%s] %q: Seek(%d) yielded a result past the oracle end", tag, expr, b)
				}
				return
			}
			if !ok || e.Node != want[at].Node {
				t.Fatalf("[%s] %q: Seek(%d) disagrees with oracle position %d", tag, expr, b, at)
			}
			pos = at + 1
		} else {
			e, ok := cur.Next()
			if pos >= len(want) {
				if ok {
					t.Fatalf("[%s] %q: Next yielded a result past the oracle end", tag, expr)
				}
				return
			}
			if !ok || e.Node != want[pos].Node {
				t.Fatalf("[%s] %q: Next disagrees with oracle position %d", tag, expr, pos)
			}
			pos++
		}
	}
}

// TestJoinLazyVsMaterialized is the pipeline differential: on random and
// xmark-lite documents, random paths must yield identical streams from
// the cursor-composed join and the materialized PR-3 oracle — under full
// drains and under random partial Next/Seek interleavings, over both the
// flat TagIndex and a finely chunked index (so Seek fence-skips are on
// the tested path).
func TestJoinLazyVsMaterialized(t *testing.T) {
	type namedDoc struct {
		name string
		d    *document.Doc
	}
	var docs []namedDoc
	for i, x := range []*xmldom.Document{
		workload.GenerateDoc(workload.DocConfig{Elements: 400, MaxDepth: 9, MaxFanout: 6, TextProb: 0.3, AttrProb: 0.5}, 11),
		workload.GenerateDoc(workload.DocConfig{Elements: 700, MaxDepth: 4, MaxFanout: 20, TextProb: 0.1, AttrProb: 0.3}, 12),
		workload.XMarkLite(3, 13),
	} {
		d, err := document.Load(x, p42)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, namedDoc{name: []string{"deep", "wide", "xmark"}[i], d: d})
	}
	tags := append([]string{"*", "root"}, workload.DefaultTags...)
	tags = append(tags, "item", "name", "site", "bidder", "missing")
	rng := rand.New(rand.NewSource(7))
	for _, dc := range docs {
		memo := NewPredMemo()
		flat := dc.d.BuildTagIndex()
		chunked := index.FromSized(dc.d.BuildTagIndex(), 4) // tiny chunks: many fences
		for trial := 0; trial < 150; trial++ {
			expr := randomPathExpr(rng, tags)
			p, err := Parse(expr)
			if err != nil {
				continue
			}
			for _, ix := range []struct {
				tag string
				idx Index
			}{{dc.name + "/flat", flat}, {dc.name + "/chunk4", chunked}} {
				want := oracleEntries(t, dc.d, ix.idx, p)
				drainMatches(t, ix.tag, expr, JoinCursorWith(ix.idx, p, prodOpts(memo)), want)
				torturePartial(t, ix.tag, expr, JoinCursorWith(ix.idx, p, prodOpts(memo)), want,
					rand.New(rand.NewSource(int64(trial))))
			}
		}
	}
}

// TestJoinCursorPredicates: attribute predicates stream through the lazy
// pipeline identically to the oracle — on the flat index and on a finely
// chunked one (where the pushdown path can actually reject chunks), with
// the verdict memo shared across every query.
func TestJoinCursorPredicates(t *testing.T) {
	d := load(t, `<db><u role="admin"><k/></u><u><k/></u><u role="admin"/><g><u role="admin"><k id="7"/></u></g></db>`)
	flat := d.BuildTagIndex()
	chunked := index.FromSized(d.BuildTagIndex(), 2)
	memo := NewPredMemo()
	for _, expr := range []string{
		"//u[@role='admin']", "//u[@role]/k", "/db/u[@role='admin']",
		"//u[@role='admin']//k[@id='7']", "//u[@missing]",
		"//u[@role='admin']//u[@role='admin']", // repeated signature: shared verdict memo
		"//u[@role='root']", "//k[@id='8']",    // present key, absent value
	} {
		p, err := Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []struct {
			tag string
			idx Index
		}{{"flat", flat}, {"chunk2", chunked}} {
			want := JoinMaterialized(d, ix.idx, p)
			got := document.DrainCursor(JoinCursorWith(ix.idx, p, prodOpts(memo)))
			if len(got) != len(want) {
				t.Fatalf("%s[%s]: lazy %d, oracle %d", expr, ix.tag, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i] {
					t.Fatalf("%s[%s]: result %d differs", expr, ix.tag, i)
				}
			}
		}
	}
}

// TestDescendantsCursorMatchesEager: the range cursor agrees with the
// eager Descendants on every anchor, including partial consumption.
func TestDescendantsCursorMatchesEager(t *testing.T) {
	x := workload.XMarkLite(2, 17)
	d, err := document.Load(x, p42)
	if err != nil {
		t.Fatal(err)
	}
	idx := index.FromSized(d.BuildTagIndex(), 8)
	flat := d.BuildTagIndex()
	for _, anchor := range d.Elements("item") {
		want := Descendants(d, flat, anchor)
		lab, err := d.Label(anchor)
		if err != nil {
			t.Fatal(err)
		}
		cur := DescendantsCursor(idx, document.Entry{Node: anchor, Label: lab, Level: anchor.Level()})
		got := document.DrainCursor(cur)
		if len(got) != len(want) {
			t.Fatalf("descendants: lazy %d, eager %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i] {
				t.Fatalf("descendants: result %d differs", i)
			}
		}
		if len(want) > 1 {
			// Seek into the middle of the subtree range stays in bounds.
			cur := DescendantsCursor(idx, document.Entry{Node: anchor, Label: lab, Level: anchor.Level()})
			mid, _ := d.Label(want[len(want)/2])
			e, ok := cur.Seek(mid.Begin)
			if !ok || e.Node != want[len(want)/2] {
				t.Fatal("descendants Seek landed wrong")
			}
		}
	}
}
