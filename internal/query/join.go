package query

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// Index supplies begin-sorted posting streams per element tag; the tag
// "*" stands for every element. Both document.TagIndex (a one-shot
// snapshot) and index.Index (the incremental chunked copy-on-write
// versions the Store publishes) satisfy it. Implementations must be safe
// for concurrent readers; each traversal obtains its own cursor, and the
// postings behind it are shared and read-only.
//
// The cursor abstraction is what frees the index from contiguous
// slices: the chunked index serves postings straight out of its
// immutable chunks, and its Seek skips whole chunks by fence comparison,
// which the structural joins below exploit to jump over candidates that
// cannot have an ancestor in the context set.
type Index interface {
	Cursor(tag string) document.Cursor
}

// Join evaluates the path with label-based structural joins over a tag
// index and materializes the matches in document order. Every step is
// one linear merge of two begin-sorted posting streams using the
// interval containment predicate — the relational plan the paper's
// labeling scheme enables ("exactly one self-join with label comparisons
// as predicates", §1). The child axis adds a level-equality check on top
// of containment.
//
// Join drains the lazy cursor pipeline (JoinCursor, stream.go): steps
// compose as cursors end-to-end, so only the final result set is
// allocated here. The d parameter is kept for call-site compatibility;
// evaluation reads the index alone.
func Join(d *document.Doc, idx Index, p *Path) []*xmldom.Node {
	_ = d
	var out []*xmldom.Node
	cur := JoinCursor(idx, p)
	for e, ok := cur.Next(); ok; e, ok = cur.Next() {
		out = append(out, e.Node)
	}
	return out
}

// JoinMaterialized is the eager evaluator: each step's result set is
// materialized as a begin-sorted entry slice before the next step joins
// against it. It is retained as the differential oracle for the lazy
// pipeline (fuzz_test.go) and as the memory baseline the `-exp pipeline`
// experiment measures against; production paths use Join/JoinCursor.
func JoinMaterialized(d *document.Doc, idx Index, p *Path) []*xmldom.Node {
	if len(p.Steps) == 0 {
		return nil
	}
	first := p.Steps[0]
	var ctx []document.Entry
	if p.Rooted {
		// Anchor at the root element.
		rootEntry, ok := findEntry(d, idx, d.X.Root)
		if !ok {
			return nil
		}
		switch first.Axis {
		case Child:
			if matchesStep(d.X.Root, first) {
				ctx = []document.Entry{rootEntry}
			}
		case Descendant:
			if matchesStep(d.X.Root, first) {
				ctx = append(ctx, rootEntry)
			}
			ctx = append(ctx, containedIn(stepCursor(idx, first), []document.Entry{rootEntry}, false)...)
			ctx = dedupEntries(ctx)
		}
	} else {
		ctx = document.DrainCursor(stepCursor(idx, first))
	}
	for _, st := range p.Steps[1:] {
		ctx = containedIn(stepCursor(idx, st), ctx, st.Axis == Child)
	}
	out := make([]*xmldom.Node, len(ctx))
	for i, e := range ctx {
		out[i] = e.Node
	}
	return out
}

// stepCursor returns the plain begin-sorted posting stream for a step,
// applying its attribute predicates as an entry-by-entry streaming
// filter — no pushdown, no memoization. JoinMaterialized evaluates on
// exactly this so the oracle shares none of the optimized machinery the
// differential tests are checking.
func stepCursor(idx Index, st Step) document.Cursor {
	cur := idx.Cursor(st.Tag)
	if len(st.Preds) == 0 {
		return cur
	}
	return &predCursor{cur: cur, preds: st.Preds}
}

// stepCursorOpt is the production step stream: on a predicate-bearing
// step it pushes the required attribute keys below the fence directory
// (the cursor then rejects whole chunks whose summary proves a key
// absent, before decoding a posting) and installs the step's shared
// verdict memo when the evaluation carries one.
func stepCursorOpt(idx Index, st Step, memos map[string]map[*xmldom.Node]bool) document.Cursor {
	cur := idx.Cursor(st.Tag)
	if len(st.Preds) == 0 {
		return cur
	}
	if cf, ok := cur.(document.ChunkFilter); ok {
		cf.FilterChunks(predHashes(st.Preds))
	}
	var memo map[*xmldom.Node]bool
	if memos != nil {
		memo = memos[stepSig(st)]
	}
	return &predCursor{cur: cur, preds: st.Preds, memo: memo}
}

// predHashes renders a step's predicates as the attribute-key hashes a
// chunk must contain for any entry to pass: the name=value key for an
// equality test (strictly tighter than the bare name), the name key for
// an existence test. Conjunctive, like the predicates themselves.
func predHashes(preds []Pred) []uint64 {
	out := make([]uint64, len(preds))
	for i, p := range preds {
		if p.HasValue {
			out[i] = document.AttrKVHash(p.Attr, p.Value)
		} else {
			out[i] = document.AttrKeyHash(p.Attr)
		}
	}
	return out
}

// stepSig canonically renders a step's tag and predicates — the identity
// under which predicate verdicts may be shared between cursors (the axis
// deliberately excluded: it never affects a node's verdict).
func stepSig(st Step) string {
	var b strings.Builder
	b.WriteString(st.Tag)
	for _, p := range st.Preds {
		if p.HasValue {
			fmt.Fprintf(&b, "[@%s='%s']", p.Attr, p.Value)
		} else {
			fmt.Fprintf(&b, "[@%s]", p.Attr)
		}
	}
	return b.String()
}

// PredMemo caches node→verdict predicate resolutions per step signature
// across every query evaluated with it — the Txn-scoped mirror of the
// Txn label memo: within one read transaction attributes are stable, so
// a node's verdict for a given predicate set never changes. Not safe for
// concurrent use (like the Txn that owns it).
type PredMemo struct {
	steps map[string]map[*xmldom.Node]bool
}

// NewPredMemo returns an empty memo.
func NewPredMemo() *PredMemo {
	return &PredMemo{steps: make(map[string]map[*xmldom.Node]bool)}
}

// step returns (allocating on first use) the verdict cache for one step
// signature.
func (m *PredMemo) step(sig string) map[*xmldom.Node]bool {
	s := m.steps[sig]
	if s == nil {
		s = make(map[*xmldom.Node]bool)
		m.steps[sig] = s
	}
	return s
}

// predMemos wires a Txn-scoped memo's per-signature caches to the
// predicate steps of one path. Verdicts are memoized ONLY when a Txn
// supplies the memo: a single query never revisits a node often enough
// to amortize the map inserts (measured in BenchmarkPredMemo — a
// per-query cache for repeated signatures lost to plain re-evaluation
// on both lean and attribute-heavy corpora), but across the repeated
// queries of one read transaction the steady state is pure pointer
// probes, which beat re-walking long attribute lists.
func predMemos(p *Path, o EvalOptions) map[string]map[*xmldom.Node]bool {
	if o.Memo == nil {
		return nil
	}
	var out map[string]map[*xmldom.Node]bool
	for _, st := range p.Steps {
		if len(st.Preds) == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]map[*xmldom.Node]bool)
		}
		sig := stepSig(st)
		out[sig] = o.Memo.step(sig)
	}
	return out
}

// predCursor filters a posting stream through a step's attribute
// predicates without materializing the list. With a memo installed,
// verdicts resolve through one hash probe instead of re-walking the
// node's attribute list.
type predCursor struct {
	cur   document.Cursor
	preds []Pred
	memo  map[*xmldom.Node]bool // shared verdict cache; nil = evaluate always
}

// memoMinAttrs gates which nodes a memo caches: a pointer-keyed map
// probe costs about as much as walking a couple of attributes, so
// caching short-listed nodes is pure overhead (BenchmarkPredMemo). By
// skipping them the memo stays empty on lean documents — and probing an
// empty map is a near-free early return — while attribute-heavy nodes,
// where the probe replaces a long string-compare walk, still hit.
const memoMinAttrs = 4

// passes evaluates (or recalls) one node's verdict. The len guard keeps
// the still-empty-memo path to one inlined field read — a map access is
// an uninlinable runtime call even when the map holds nothing, and it is
// paid per posting.
func (c *predCursor) passes(n *xmldom.Node) bool {
	if len(c.memo) > 0 {
		if v, ok := c.memo[n]; ok {
			return v
		}
	}
	v := passesPreds(n, c.preds)
	if c.memo != nil && len(n.Attrs()) >= memoMinAttrs {
		c.memo[n] = v
	}
	return v
}

func (c *predCursor) Next() (document.Entry, bool) {
	for {
		e, ok := c.cur.Next()
		if !ok {
			return document.Entry{}, false
		}
		if c.passes(e.Node) {
			return e, true
		}
	}
}

func (c *predCursor) Seek(begin uint64) (document.Entry, bool) {
	e, ok := c.cur.Seek(begin)
	for ok && !c.passes(e.Node) {
		e, ok = c.cur.Next()
	}
	if !ok {
		return document.Entry{}, false
	}
	return e, true
}

// SeekOpen implements document.OpenSeeker: predicate filtering composes
// with the zig-zag context skip, so a predicate-bearing context step
// both skips closed chunks (maxEnd fences, via the inner cursor) and
// never evaluates predicates on the entries those skips discard.
func (c *predCursor) SeekOpen(begin uint64) (document.Entry, bool) {
	for {
		e, ok := seekOpenOn(c.cur, begin)
		if !ok {
			return document.Entry{}, false
		}
		if c.passes(e.Node) {
			return e, true
		}
	}
}

func sortEntries(es []document.Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Label.Begin < es[j].Label.Begin })
}

// containedIn returns the candidates that have an ancestor (or parent,
// when childOnly) in ctx — the stack-based structural merge join: both
// inputs are begin-sorted; ancestors are pushed while their intervals
// are open and popped once passed, so each element is touched O(1)
// times. Candidates stream through a cursor: whenever the ancestor stack
// runs empty, every candidate before the next context interval is
// provably unmatched, so the join Seeks past all of them — on the
// chunked index that discards whole chunks by fence comparison instead
// of scanning every posting.
func containedIn(candidates document.Cursor, ctx []document.Entry, childOnly bool) []document.Entry {
	if len(ctx) == 0 {
		return nil
	}
	var out []document.Entry
	var stack []document.Entry
	ai := 0
	// Containment is strict (anc.Begin < cand.Begin), so nothing at or
	// before the first context begin can qualify.
	cand, ok := candidates.Seek(ctx[0].Label.Begin + 1)
	for ok {
		// Pop closed ancestors.
		for len(stack) > 0 && stack[len(stack)-1].Label.End < cand.Label.Begin {
			stack = stack[:len(stack)-1]
		}
		// Push ancestors opening before this candidate.
		for ai < len(ctx) && ctx[ai].Label.Begin < cand.Label.Begin {
			if ctx[ai].Label.End > cand.Label.Begin { // still open
				stack = append(stack, ctx[ai])
			}
			ai++
		}
		if len(stack) == 0 {
			if ai >= len(ctx) {
				break // no context intervals left to open
			}
			// Skip every candidate before the next context interval.
			cand, ok = candidates.Seek(ctx[ai].Label.Begin + 1)
			continue
		}
		top := stack[len(stack)-1]
		if top.Label.Contains(cand.Label) {
			if !childOnly {
				out = append(out, cand)
			} else if top.Level == cand.Level-1 {
				// The innermost ctx ancestor is the parent iff it sits one
				// level above; deeper ctx ancestors cannot be (nesting).
				out = append(out, cand)
			}
		}
		cand, ok = candidates.Next()
	}
	return out
}

// findEntry builds the root's entry (the tag index stores it too, but this
// avoids a scan when the tag is unknown).
func findEntry(d *document.Doc, idx Index, n *xmldom.Node) (document.Entry, bool) {
	lab, err := d.Label(n)
	if err != nil {
		return document.Entry{}, false
	}
	return document.Entry{Node: n, Label: lab, Level: n.Level()}, true
}

// dedupEntries removes duplicates from a begin-sorted entry list.
func dedupEntries(es []document.Entry) []document.Entry {
	if len(es) < 2 {
		return es
	}
	sortEntries(es)
	out := es[:1]
	for _, e := range es[1:] {
		if e.Node != out[len(out)-1].Node {
			out = append(out, e)
		}
	}
	return out
}

// Descendants returns all elements strictly inside n, found by one Seek
// plus a contiguous scan of the "*" posting stream — the primitive that
// turns "give me the subtree" into an index range lookup. On the chunked
// index the Seek lands mid-chunk without touching anything before it.
func Descendants(d *document.Doc, idx Index, n *xmldom.Node) []*xmldom.Node {
	lab, err := d.Label(n)
	if err != nil {
		return nil
	}
	var out []*xmldom.Node
	cur := idx.Cursor("*")
	for e, ok := cur.Seek(lab.Begin + 1); ok && e.Label.Begin < lab.End; e, ok = cur.Next() {
		if e.Label.End < lab.End {
			out = append(out, e.Node)
		}
	}
	return out
}

// AllElements materializes the "*" posting stream: every element in
// document order.
func AllElements(idx Index) []document.Entry {
	return document.DrainCursor(idx.Cursor("*"))
}
