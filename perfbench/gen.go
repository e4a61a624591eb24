package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// Document scales. The edit seed is small so the run stays short while
// the document grows; the read seed is large enough that scans return
// thousands of results; forest documents are many small ones.
const (
	editScale   = 120
	readScale   = 600
	forestScale = 4
	forestDocs  = 64
	forestShard = 4

	// editsPerSecond sizes the edit run: it performs a fixed number of
	// inserts (this many per second of --seconds), not a fixed duration,
	// because its document grows as it runs.
	editsPerSecond = 120

	// forestOpsPerSecond sizes the forest run the same way: its write
	// log grows with every put, and recovery replays it, so a fixed op
	// count keeps recovery_s independent of throughput.
	forestOpsPerSecond = 600
)

// Query mix of the read and forest workloads, and the rooted path the
// edit workload also sends every tenth iteration.
const (
	pathQuery = "/site/people/person/name"
	scanQuery = "//item/description/para"
)

func pointQuery(id string) string { return "//item[@id='" + id + "']/name" }

// op is one client request of a generated stream.
type op struct {
	kind  string // "insert", "point", "path", "scan", "put"
	query string

	// insert
	parent, tag, id, frag string
	idx                   int

	// point queries: the expected name text of the single result
	want string

	// put
	doc, version int
}

func xmlString(d *xmldom.Document) string {
	var b strings.Builder
	if err := d.Write(&b); err != nil {
		panic(err) // strings.Builder writes cannot fail
	}
	return b.String()
}

// editParents are the rooted parents edit inserts under; a rooted path
// makes every parent lookup resolve the root through Index.All on a fresh
// index version, which is one of the costs the workload keeps visible.
var editParents = []struct{ path, tag string }{
	{"/site/regions/africa", "item"},
	{"/site/regions/asia", "item"},
	{"/site/regions/australia", "item"},
	{"/site/regions/europe", "item"},
	{"/site/regions/namerica", "item"},
	{"/site/regions/samerica", "item"},
	{"/site/people", "person"},
	{"/site/open_auctions", "open_auction"},
}

// editChildren is the seed child count of each edit parent at a scale,
// matching workload.XMarkLite.
func editChildren(scale int) []int {
	n := make([]int, len(editParents))
	for i := range n {
		n[i] = 2 * scale
	}
	n[6] = 5 * scale
	n[7] = 3 * scale
	return n
}

// editStream is the fixed insert stream of the edit workload: parents
// drawn uniformly, positions from the paper's hotspot distribution, and
// a fragment shaped for the parent with a unique id and a name child.
func editStream(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	pos := workload.NewPositions(workload.Hotspot, seed+1)
	kids := editChildren(editScale)
	ops := make([]op, n)
	for i := range ops {
		s := rng.Intn(len(editParents))
		p := editParents[s]
		id := fmt.Sprintf("new%d", i)
		var frag string
		switch p.tag {
		case "item":
			frag = fmt.Sprintf(`<item id="%s"><name>%s-name</name><description><para>edit %d %d</para></description></item>`, id, id, i, rng.Intn(100))
		case "person":
			frag = fmt.Sprintf(`<person id="%s"><name>%s-name</name><emailaddress>%s@example.org</emailaddress></person>`, id, id, id)
		default:
			frag = fmt.Sprintf(`<open_auction id="%s"><name>%s-name</name><initial>%d.00</initial><itemref item="item%d"/></open_auction>`, id, id, 1+rng.Intn(200), rng.Intn(12*editScale))
		}
		ops[i] = op{kind: "insert", parent: p.path, tag: p.tag, id: id, frag: frag, idx: pos.Next(kids[s]), want: id + "-name"}
		kids[s]++
	}
	return ops
}

// rywQuery is the follower read that must return exactly the inserted
// element's name.
func rywQuery(o op) string { return "//" + o.tag + "[@id='" + o.id + "']/name" }

// readStream draws the read mix for one client: 70% point, 20% path,
// 10% scan. Streams are unbounded in time, so ops are drawn lazily.
type readStream struct {
	rng   *rand.Rand
	items int
	names []string
}

func (s *readStream) next() op {
	switch r := s.rng.Intn(100); {
	case r < 70:
		k := s.rng.Intn(s.items)
		return op{kind: "point", query: pointQuery(fmt.Sprintf("item%d", k)), want: s.names[k]}
	case r < 90:
		return op{kind: "path", query: pathQuery}
	default:
		return op{kind: "scan", query: scanQuery}
	}
}

// readNames lists each item's name text by item number, walked straight
// off the generated DOM so the point-query check does not go through the
// code under test.
func readNames(d *xmldom.Document) []string {
	var names []string
	d.Root.Walk(func(n *xmldom.Node) bool {
		if n.Kind() == xmldom.Element && n.Tag() == "item" {
			var id int
			v, _ := n.Attr("id")
			fmt.Sscanf(v, "item%d", &id)
			for len(names) <= id {
				names = append(names, "")
			}
			names[id] = childText(n, "name")
		}
		return true
	})
	return names
}

// childText is the text of n's first child element named tag.
func childText(n *xmldom.Node, tag string) string {
	for _, c := range n.Children() {
		if c.Kind() == xmldom.Element && c.Tag() == tag {
			return textOf(c)
		}
	}
	return ""
}

// textOf is an element's immediate text, as ltreed renders it.
func textOf(e *xmldom.Node) string {
	var b strings.Builder
	for _, c := range e.Children() {
		if c.Kind() == xmldom.Text {
			b.WriteString(c.Data())
		}
	}
	return b.String()
}

// expectCounts counts path and scan matches by walking the DOM: person
// names under /site/people, and para under description under any item.
func expectCounts(d *xmldom.Document) (path, scan int) {
	d.Root.Walk(func(n *xmldom.Node) bool {
		if n.Kind() != xmldom.Element {
			return true
		}
		p := n.Parent()
		switch {
		case n.Tag() == "name" && p != nil && p.Tag() == "person" && p.Parent() != nil &&
			p.Parent().Tag() == "people" && p.Parent().Parent() == d.Root && d.Root.Tag() == "site":
			path++
		case n.Tag() == "para" && p != nil && p.Tag() == "description" && p.Parent() != nil && p.Parent().Tag() == "item":
			scan++
		}
		return true
	})
	return path, scan
}

// forestDoc generates version v of forest document k. Item ids carry the
// document number so a point query matches one element forest-wide.
func forestDoc(seed int64, k, v int) *xmldom.Document {
	d := workload.XMarkLite(forestScale, seed*1000+int64(2*k+v))
	d.Root.Walk(func(n *xmldom.Node) bool {
		if n.Kind() == xmldom.Element && n.Tag() == "item" {
			id, _ := n.Attr("id")
			n.SetAttr("id", fmt.Sprintf("d%d-%s", k, id))
		}
		return true
	})
	return d
}

// forestSet holds both versions of every forest document; a put swaps a
// document to its other version, so counts stay fixed while content moves.
type forestSet struct {
	xml   [forestDocs][2]string
	names [forestDocs][2][]string // item name text by item number
	items int                     // items per document
	scan  int                     // scan matches per document
}

func newForestSet(seed int64) *forestSet {
	fs := &forestSet{}
	for k := 0; k < forestDocs; k++ {
		for v := 0; v < 2; v++ {
			d := forestDoc(seed, k, v)
			fs.xml[k][v] = xmlString(d)
			var names []string
			d.Root.Walk(func(n *xmldom.Node) bool {
				if n.Kind() == xmldom.Element && n.Tag() == "item" {
					names = append(names, childText(n, "name"))
				}
				return true
			})
			fs.names[k][v] = names
			_, scan := expectCounts(d)
			fs.items, fs.scan = len(names), scan
		}
	}
	return fs
}

// forestStream draws the forest mix: 20% put, 70% point, 10% scan. It
// tracks each document's current version so point checks know the
// expected name.
type forestStream struct {
	rng *rand.Rand
	fs  *forestSet
	cur [forestDocs]int
}

func (s *forestStream) next() op {
	switch r := s.rng.Intn(100); {
	case r < 20:
		k := s.rng.Intn(forestDocs)
		s.cur[k] ^= 1
		return op{kind: "put", doc: k, version: s.cur[k]}
	case r < 90:
		k, j := s.rng.Intn(forestDocs), s.rng.Intn(s.fs.items)
		return op{kind: "point", query: pointQuery(fmt.Sprintf("d%d-item%d", k, j)), want: s.fs.names[k][s.cur[k]][j]}
	default:
		return op{kind: "scan", query: scanQuery}
	}
}

func forestID(k int) string { return fmt.Sprintf("doc%d", k) }
