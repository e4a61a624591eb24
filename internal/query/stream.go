package query

import "github.com/ltree-db/ltree/internal/document"

// This file is the lazy evaluation pipeline: every step of a path is a
// cursor whose *output* is again a begin-sorted cursor, so a whole path
// composes into one pull-driven operator tree. Nothing is materialized
// between steps — the only per-step state is the structural join's stack
// of open ancestor intervals, which tree nesting bounds by the document
// depth. A k-step path over a snapshot therefore evaluates in
// O(k · depth) intermediate memory no matter how large the step results
// are, and the first match surfaces after touching only the postings
// before it.
//
// JoinMaterialized (join.go) is the PR-3 evaluator kept as the
// differential oracle; the two are verified equivalent on random
// documents and random paths (fuzz_test.go).

// JoinCursor evaluates the path lazily against a tag index and returns a
// begin-sorted, duplicate-free cursor of the matching elements. The
// cursor borrows the index version it was built from: with an immutable
// snapshot (index.Index, or a Txn's pinned version) it stays valid for
// as long as the caller keeps pulling.
//
// Rooted paths anchor at the root element, which is recovered from the
// index itself (the minimal begin of the "*" stream) rather than the
// live document, so a pinned snapshot never consults mutable label
// state.
//
// Evaluation runs the zig-zag join (both sides fence-skip) and
// chunk-level predicate pushdown. JoinCursorWith adds a shared
// predicate-verdict memo.
func JoinCursor(idx Index, p *Path) document.Cursor {
	return JoinCursorWith(idx, p, EvalOptions{})
}

// EvalOptions carries per-evaluation state for the lazy pipeline.
type EvalOptions struct {
	// Memo, when set, shares predicate verdicts across every query
	// evaluated with it (one per Txn, mirroring the Txn label memo). Not
	// safe for concurrent use.
	Memo *PredMemo
}

// JoinCursorWith is JoinCursor with explicit evaluation options.
func JoinCursorWith(idx Index, p *Path, o EvalOptions) document.Cursor {
	if len(p.Steps) == 0 {
		return emptyCursor{}
	}
	memos := predMemos(p, o)
	step := func(st Step) document.Cursor { return stepCursorOpt(idx, st, memos) }
	first := p.Steps[0]
	var ctx document.Cursor
	if p.Rooted {
		root, ok := rootEntry(idx)
		if !ok {
			return emptyCursor{}
		}
		switch first.Axis {
		case Child:
			// A rooted child first step matches only the root itself.
			if !matchesStep(root.Node, first) {
				return emptyCursor{}
			}
			ctx = document.NewSliceCursor([]document.Entry{root})
		case Descendant:
			anchor := document.NewSliceCursor([]document.Entry{root})
			ctx = newJoinCursor(step(first), anchor, false)
			if matchesStep(root.Node, first) {
				// The root precedes every descendant in begin order, so
				// prepending keeps the stream sorted (and duplicate-free:
				// the join emits strictly contained candidates only).
				ctx = &prependCursor{head: root, rest: ctx}
			}
		}
	} else {
		ctx = step(first)
	}
	for _, st := range p.Steps[1:] {
		ctx = newJoinCursor(step(st), ctx, st.Axis == Child)
	}
	return ctx
}

// rootEntry recovers the document root's posting from the index: the
// first entry of the "*" stream (the root owns the minimal begin label).
func rootEntry(idx Index) (document.Entry, bool) {
	return idx.Cursor("*").Next()
}

// emptyCursor is the always-exhausted stream.
type emptyCursor struct{}

func (emptyCursor) Next() (document.Entry, bool)       { return document.Entry{}, false }
func (emptyCursor) Seek(uint64) (document.Entry, bool) { return document.Entry{}, false }

// prependCursor yields one entry ahead of an already-sorted rest stream.
type prependCursor struct {
	head document.Entry
	rest document.Cursor
	used bool
}

func (c *prependCursor) Next() (document.Entry, bool) {
	if !c.used {
		c.used = true
		return c.head, true
	}
	return c.rest.Next()
}

func (c *prependCursor) Seek(begin uint64) (document.Entry, bool) {
	if !c.used {
		c.used = true
		if c.head.Label.Begin >= begin {
			return c.head, true
		}
	}
	return c.rest.Seek(begin)
}

// SeekOpen implements document.OpenSeeker, so a rooted descendant anchor
// does not hide the inner join's skip machinery from an enclosing join.
func (c *prependCursor) SeekOpen(begin uint64) (document.Entry, bool) {
	if !c.used {
		c.used = true
		if c.head.Label.Begin >= begin || c.head.Label.End >= begin {
			return c.head, true
		}
	}
	return seekOpenOn(c.rest, begin)
}

// seekOpenOn advances a cursor to the first entry whose interval may
// still be open at begin — the cursor's native SeekOpen when it has one
// (chunk-level maxEnd skips), a filtering scan otherwise (same work the
// join's discard loop would have done).
func seekOpenOn(cur document.Cursor, begin uint64) (document.Entry, bool) {
	if os, ok := cur.(document.OpenSeeker); ok {
		return os.SeekOpen(begin)
	}
	for {
		e, ok := cur.Next()
		if !ok || e.Label.Begin >= begin || e.Label.End >= begin {
			return e, ok
		}
	}
}

// peekCursor adds one-entry lookahead to a cursor; the streaming join
// needs to inspect the next context interval without consuming it (it
// decides whether to open it only once a candidate reaches it).
type peekCursor struct {
	cur  document.Cursor
	os   document.OpenSeeker // cur's native SeekOpen, nil when absent
	head document.Entry
	has  bool
}

func newPeekCursor(cur document.Cursor) *peekCursor {
	c := &peekCursor{cur: cur}
	c.os, _ = cur.(document.OpenSeeker)
	return c
}

func (c *peekCursor) peek() (document.Entry, bool) {
	if !c.has {
		c.head, c.has = c.cur.Next()
		if !c.has {
			return document.Entry{}, false
		}
	}
	return c.head, true
}

// peekOpen is the zig-zag join's seek: like peek, but entries whose
// intervals provably closed before begin (End < begin, hence also
// Begin < begin) are discarded first — the buffered head included — so a
// far candidate jump fast-forwards the context side instead of pulling
// it linearly. Clamped to the forward-only contract: the position never
// retreats, and an already-buffered head that may still be open is
// returned as-is. Straddling ancestors (Begin < begin < End) are always
// retained.
func (c *peekCursor) peekOpen(begin uint64) (document.Entry, bool) {
	if c.has {
		if c.head.Label.Begin >= begin || c.head.Label.End >= begin {
			return c.head, true
		}
		c.has = false // buffered head provably closed before begin
	}
	if c.os != nil {
		c.head, c.has = c.os.SeekOpen(begin)
	} else {
		c.head, c.has = seekOpenOn(c.cur, begin)
	}
	if !c.has {
		return document.Entry{}, false
	}
	return c.head, true
}

func (c *peekCursor) next() (document.Entry, bool) {
	if c.has {
		c.has = false
		return c.head, true
	}
	return c.cur.Next()
}

// joinCursor is containedIn as a cursor-composing operator: it streams
// the candidates that have an ancestor (parent, when childOnly) in the
// context stream. Both inputs arrive begin-sorted; the output is too.
//
// The merge is the same stack join as the materialized evaluator —
// context intervals are pushed while open and popped once passed — but
// the context side is pulled lazily, one entry ahead of the current
// candidate, so chaining k of these keeps only k stacks of open
// ancestors alive: O(depth) each by tree nesting, independent of how
// many entries either side produces.
//
// Skips run in both directions (the zig-zag join): whenever the stack
// runs empty the candidate side Seeks past everything before the next
// context interval, and whenever a candidate lands far ahead the context
// side peekOpens past every interval that closed before it — on the
// chunked index both turn into fence-directory skips (begin fences for
// the candidate jump, maxEnd fences for the context jump, since an
// ancestor interval can straddle the target and must never be skipped).
type joinCursor struct {
	cand      document.Cursor
	ctx       *peekCursor
	childOnly bool
	stack     []document.Entry
	started   bool
}

func newJoinCursor(cand, ctx document.Cursor, childOnly bool) *joinCursor {
	return &joinCursor{cand: cand, ctx: newPeekCursor(ctx), childOnly: childOnly}
}

func (j *joinCursor) Next() (document.Entry, bool) {
	var cand document.Entry
	var ok bool
	if !j.started {
		j.started = true
		// Containment is strict, so nothing at or before the first
		// context begin can qualify.
		first, have := j.ctx.peek()
		if !have {
			return document.Entry{}, false
		}
		cand, ok = j.cand.Seek(first.Label.Begin + 1)
	} else {
		cand, ok = j.cand.Next()
	}
	return j.advance(cand, ok)
}

func (j *joinCursor) Seek(begin uint64) (document.Entry, bool) {
	j.started = true
	cand, ok := j.cand.Seek(begin)
	return j.advance(cand, ok)
}

// SeekOpen implements document.OpenSeeker, cascading the zig-zag skip
// through nested joins on deep paths: when an enclosing join declares
// everything closed before begin irrelevant, this join forwards the
// declaration to its own candidate side — matches that closed before
// begin are never discovered, and on a chunked candidate stream whole
// chunks are discarded by their maxEnd fences. The join's merge state
// stays sound: skipped candidates only mean later context pulls, and
// every remaining candidate still sees its full open-ancestor stack.
func (j *joinCursor) SeekOpen(begin uint64) (document.Entry, bool) {
	j.started = true
	cand, ok := seekOpenOn(j.cand, begin)
	for ok {
		e, have := j.advance(cand, ok)
		if !have {
			return document.Entry{}, false
		}
		if e.Label.Begin >= begin || e.Label.End >= begin {
			return e, true
		}
		// advance surfaced a match that closed before begin (it pulled
		// candidates itself, plain Next): resume skipping.
		cand, ok = seekOpenOn(j.cand, begin)
	}
	return document.Entry{}, false
}

// advance runs the stack merge from the given candidate until a match
// surfaces or a side exhausts.
func (j *joinCursor) advance(cand document.Entry, ok bool) (document.Entry, bool) {
	for ok {
		// Pop closed ancestors.
		for n := len(j.stack); n > 0 && j.stack[n-1].Label.End < cand.Label.Begin; n-- {
			j.stack = j.stack[:n-1]
		}
		// Pull context intervals opening before this candidate (zig-zag):
		// intervals that closed before the candidate are skipped
		// wholesale (they can never be ancestors of it or of any later
		// candidate); only straddlers and not-yet-open intervals are
		// surfaced.
		for {
			c, have := j.ctx.peekOpen(cand.Label.Begin)
			if !have || c.Label.Begin >= cand.Label.Begin {
				break
			}
			j.ctx.next()
			if c.Label.End > cand.Label.Begin { // still open
				j.stack = append(j.stack, c)
			}
		}
		if len(j.stack) == 0 {
			c, have := j.ctx.peek()
			if !have {
				return document.Entry{}, false // no context intervals left to open
			}
			// Skip every candidate before the next context interval.
			cand, ok = j.cand.Seek(c.Label.Begin + 1)
			continue
		}
		top := j.stack[len(j.stack)-1]
		if top.Label.Contains(cand.Label) {
			if !j.childOnly {
				return cand, true
			}
			if top.Level == cand.Level-1 {
				// The innermost ctx ancestor is the parent iff it sits one
				// level above; deeper ctx ancestors cannot be (nesting).
				return cand, true
			}
		}
		cand, ok = j.cand.Next()
	}
	return document.Entry{}, false
}

// DescendantsCursor streams all elements strictly inside the anchor
// entry in document order: one Seek plus a bounded scan of the "*"
// stream — the subtree-as-index-range primitive, now usable against a
// pinned snapshot (the anchor's label comes from the same index version,
// not the live document).
func DescendantsCursor(idx Index, anchor document.Entry) document.Cursor {
	return &rangeCursor{cur: idx.Cursor("*"), anchor: anchor.Label}
}

// rangeCursor bounds a begin-sorted stream to entries strictly contained
// in an interval.
type rangeCursor struct {
	cur     document.Cursor
	anchor  document.Label
	started bool
}

func (c *rangeCursor) Next() (document.Entry, bool) {
	var e document.Entry
	var ok bool
	if !c.started {
		c.started = true
		e, ok = c.cur.Seek(c.anchor.Begin + 1)
	} else {
		e, ok = c.cur.Next()
	}
	return c.bound(e, ok)
}

func (c *rangeCursor) Seek(begin uint64) (document.Entry, bool) {
	if begin <= c.anchor.Begin {
		begin = c.anchor.Begin + 1 // nothing before the anchor's interior qualifies
	}
	c.started = true
	e, ok := c.cur.Seek(begin)
	return c.bound(e, ok)
}

// bound filters the underlying stream down to strict containment: skip
// entries reaching past the anchor's end (tombstone-free trees nest, so
// the first entry with Begin >= anchor.End also ends the scan).
func (c *rangeCursor) bound(e document.Entry, ok bool) (document.Entry, bool) {
	for ok && e.Label.Begin < c.anchor.End {
		if e.Label.End < c.anchor.End {
			return e, true
		}
		e, ok = c.cur.Next()
	}
	return document.Entry{}, false
}
