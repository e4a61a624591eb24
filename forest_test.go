package ltree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/ltree-db/ltree/internal/query"
)

// ---------------------------------------------------------------------------
// Differential harness: a forest at any shard count must be observationally
// identical to the single-store oracle — one plain Store holding every
// document under one synthetic root, mutated through the raw Batch API with
// none of the forest's routing, registry, or merge machinery. The property
// under test is sharding-invariance: placement and shard count must never
// change what a query returns.
// ---------------------------------------------------------------------------

// fingerprintElem serializes a subtree structurally (tags, attributes
// minus the internal doc-id attribute, text, child order) — the
// label-free identity used to compare forest documents with oracle
// documents, which live in different label spaces by construction.
func fingerprintElem(n *Elem) string {
	var b strings.Builder
	writeFingerprint(&b, n)
	return b.String()
}

func writeFingerprint(b *strings.Builder, n *Elem) {
	if n.Kind() != ElementNode {
		fmt.Fprintf(b, "[%s]", n.Data())
		return
	}
	b.WriteString("<")
	b.WriteString(n.Tag())
	for _, a := range n.Attrs() {
		if a.Name == forestDocAttr {
			continue
		}
		fmt.Fprintf(b, " %s=%s", a.Name, a.Value)
	}
	b.WriteString(">")
	for _, c := range n.Children() {
		writeFingerprint(b, c)
	}
	b.WriteString("</>")
}

// forestOracle is the reference implementation: one Store, every document
// a child of its root, mutated directly.
type forestOracle struct {
	st    *Store
	roots map[string]*Elem
}

func newForestOracle(t *testing.T) *forestOracle {
	t.Helper()
	st, err := OpenString(emptyShardXML, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	return &forestOracle{st: st, roots: make(map[string]*Elem)}
}

func (o *forestOracle) put(t *testing.T, id, src string) {
	t.Helper()
	doc, err := ParseXML(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	doc.Root.SetAttr(forestDocAttr, id)
	err = o.st.Update(func(b *Batch) error {
		if old, ok := o.roots[id]; ok {
			if err := b.Delete(old); err != nil {
				return err
			}
		}
		return b.InsertSubtree(o.st.Root(), o.st.Root().NumChildren(), doc.Root)
	})
	if err != nil {
		t.Fatal(err)
	}
	o.roots[id] = doc.Root
}

func (o *forestOracle) del(t *testing.T, id string) {
	t.Helper()
	if err := o.st.Delete(o.roots[id]); err != nil {
		t.Fatal(err)
	}
	delete(o.roots, id)
}

// docID walks a result element up to its document root.
func (o *forestOracle) docID(el *Elem) string {
	for v := el; v != nil; v = v.Parent() {
		if p := v.Parent(); p != nil && p.Parent() == nil {
			id, _ := v.Attr(forestDocAttr)
			return id
		}
	}
	return ""
}

// queryFPs evaluates expr with the forest's own path semantics (rooted
// paths anchor at document roots; the synthetic root is invisible) and
// returns sorted "docID\x00fingerprint" strings.
func (o *forestOracle) queryFPs(t *testing.T, expr string) []string {
	t.Helper()
	p, err := query.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	err = o.st.View(func(tx *Txn) error {
		r := withoutShardRoot(tx.resultsFor(forestPath(p)), o.st.Root())
		for el, ok := r.Next(); ok; el, ok = r.Next() {
			out = append(out, o.docID(el)+"\x00"+fingerprintElem(el))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// forestQueryFPs collects the same observation through the forest's
// scatter-gather path (forest Txn fan-out, k-way merge, DocOf).
func forestQueryFPs(t *testing.T, f *Forest, expr string) []string {
	t.Helper()
	var out []string
	err := f.View(func(tx *Txn) error {
		r, err := tx.Query(expr)
		if err != nil {
			return err
		}
		for el, ok := r.Next(); ok; el, ok = r.Next() {
			id, _ := f.DocOf(el)
			out = append(out, id+"\x00"+fingerprintElem(el))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// forestStreamElems drains a query through the pinned-Txn streaming
// merge and returns the elements in merged order.
func forestStreamElems(t *testing.T, f *Forest, expr string) []*Elem {
	t.Helper()
	var out []*Elem
	err := f.View(func(tx *Txn) error {
		r, err := tx.Query(expr)
		if err != nil {
			return err
		}
		for el, ok := r.Next(); ok; el, ok = r.Next() {
			out = append(out, el)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var forestDiffExprs = []string{
	"/a", "/b", "/a//b", "/b//c", "//b", "//c//d", "a/b", "b/c", "//*", "/*//b", "d",
}

// compareForest asserts the forest and the oracle are observationally
// identical: document set, per-document structure, every probe query,
// global counts, and the forest's own invariants.
func compareForest(t *testing.T, f *Forest, o *forestOracle, ctx string) {
	t.Helper()
	wantIDs := make([]string, 0, len(o.roots))
	for id := range o.roots {
		wantIDs = append(wantIDs, id)
	}
	sort.Strings(wantIDs)
	gotIDs := f.Docs()
	if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
		t.Fatalf("%s: docs = %v, want %v", ctx, gotIDs, wantIDs)
	}
	if f.Len() != len(wantIDs) {
		t.Fatalf("%s: Len = %d, want %d", ctx, f.Len(), len(wantIDs))
	}
	for _, id := range wantIDs {
		root, ok := f.Get(id)
		if !ok {
			t.Fatalf("%s: doc %q missing from forest", ctx, id)
		}
		if got, want := fingerprintElem(root), fingerprintElem(o.roots[id]); got != want {
			t.Fatalf("%s: doc %q diverged:\n forest %s\n oracle %s", ctx, id, got, want)
		}
	}
	for _, expr := range forestDiffExprs {
		got := forestQueryFPs(t, f, expr)
		want := o.queryFPs(t, expr)
		if len(got) != len(want) {
			t.Fatalf("%s: query %q: %d results, oracle %d", ctx, expr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: query %q result %d:\n forest %q\n oracle %q", ctx, expr, i, got[i], want[i])
			}
		}
		// The parallel one-shot Forest.Query must yield the exact element
		// sequence the streaming merge produces — same nodes, same
		// (begin, shard) order.
		par, err := f.Query(expr)
		if err != nil {
			t.Fatalf("%s: Forest.Query(%q): %v", ctx, expr, err)
		}
		streamed := forestStreamElems(t, f, expr)
		if len(par) != len(streamed) {
			t.Fatalf("%s: Forest.Query(%q) = %d elements, streamed %d", ctx, expr, len(par), len(streamed))
		}
		for i := range par {
			if par[i] != streamed[i] {
				t.Fatalf("%s: Forest.Query(%q) element %d diverges from the streamed order", ctx, expr, i)
			}
		}
	}
	if got, want := f.Count("*"), oracleCount(t, o.st, "*")-1; got != want {
		t.Fatalf("%s: Count(*) = %d, want %d", ctx, got, want)
	}
	if got, want := len(f.Elements("b")), oracleCount(t, o.st, "b"); got != want {
		t.Fatalf("%s: Elements(b) = %d, want %d", ctx, got, want)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("%s: Check: %v", ctx, err)
	}
}

func oracleCount(t *testing.T, st *Store, tag string) int {
	t.Helper()
	n := 0
	if err := st.View(func(tx *Txn) error { n = tx.Count(tag); return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// --- random document / edit generation -------------------------------------

var forestTestTags = []string{"a", "b", "c", "d"}

func randForestDoc(rng *rand.Rand) string {
	var b strings.Builder
	writeRandElem(&b, rng, 0)
	return b.String()
}

func writeRandElem(b *strings.Builder, rng *rand.Rand, depth int) {
	tag := forestTestTags[rng.Intn(len(forestTestTags))]
	b.WriteString("<" + tag)
	if rng.Intn(3) == 0 {
		fmt.Fprintf(b, " k=\"v%d\"", rng.Intn(3))
	}
	b.WriteString(">")
	if depth < 3 {
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if rng.Intn(5) == 0 {
				fmt.Fprintf(b, "t%d", rng.Intn(9))
			} else {
				writeRandElem(b, rng, depth+1)
			}
		}
	}
	b.WriteString("</" + tag + ">")
}

// randElemPath picks a random element-descendant of root as a child-index
// path — computed on the oracle's structure, replayed on the forest's
// (the trees are structurally identical by induction).
func randElemPath(rng *rand.Rand, root *Elem) []int {
	var path []int
	n := root
	for {
		var elems []int
		for i := 0; i < n.NumChildren(); i++ {
			if n.Child(i).Kind() == ElementNode {
				elems = append(elems, i)
			}
		}
		if len(elems) == 0 || rng.Intn(2) == 0 {
			return path
		}
		i := elems[rng.Intn(len(elems))]
		path = append(path, i)
		n = n.Child(i)
	}
}

func resolveElemPath(root *Elem, path []int) *Elem {
	for _, i := range path {
		root = root.Child(i)
	}
	return root
}

// applyRandomForestOp mutates forest and oracle identically: put a new
// document, replace one, delete one, or edit inside one (insert element,
// insert text, delete a subtree).
func applyRandomForestOp(t *testing.T, rng *rand.Rand, f *Forest, o *forestOracle) {
	t.Helper()
	var ids []string
	for id := range o.roots {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	op := rng.Intn(10)
	switch {
	case op < 3 || len(ids) == 0: // put a fresh document
		id := fmt.Sprintf("doc-%03d", rng.Intn(40))
		if _, ok := o.roots[id]; ok {
			id = fmt.Sprintf("doc-%03d", 40+rng.Intn(40))
		}
		src := randForestDoc(rng)
		if _, err := f.Put(id, src); err != nil {
			t.Fatalf("Put(%q): %v", id, err)
		}
		o.put(t, id, src)
	case op < 4: // replace an existing document wholesale
		id := ids[rng.Intn(len(ids))]
		src := randForestDoc(rng)
		if _, err := f.Put(id, src); err != nil {
			t.Fatalf("replace Put(%q): %v", id, err)
		}
		o.put(t, id, src)
	case op < 5: // delete a document
		id := ids[rng.Intn(len(ids))]
		if err := f.Delete(id); err != nil {
			t.Fatalf("Delete(%q): %v", id, err)
		}
		o.del(t, id)
	default: // edit inside a document
		id := ids[rng.Intn(len(ids))]
		path := randElemPath(rng, o.roots[id])
		kind := rng.Intn(3)
		if kind == 2 && len(path) == 0 {
			kind = 0 // never delete the document root through Update
		}
		var tag, text string
		var at int
		switch kind {
		case 0:
			tag = forestTestTags[rng.Intn(len(forestTestTags))]
		case 1:
			text = fmt.Sprintf("t%d", rng.Intn(9))
		}
		edit := func(b *Batch, root *Elem) error {
			n := resolveElemPath(root, path)
			switch kind {
			case 0:
				at = rng.Intn(n.NumChildren() + 1)
				_, err := b.InsertElement(n, at, tag)
				return err
			case 1:
				at = rng.Intn(n.NumChildren() + 1)
				_, err := b.InsertText(n, at, text)
				return err
			default:
				return b.Delete(n)
			}
		}
		if err := f.Update(id, func(b *Batch, root *Elem) error { return edit(b, root) }); err != nil {
			t.Fatalf("Update(%q): %v", id, err)
		}
		// Replay the identical edit (same path, same slot) on the oracle.
		oroot := o.roots[id]
		err := o.st.Update(func(b *Batch) error {
			n := resolveElemPath(oroot, path)
			switch kind {
			case 0:
				_, err := b.InsertElement(n, at, tag)
				return err
			case 1:
				_, err := b.InsertText(n, at, text)
				return err
			default:
				return b.Delete(n)
			}
		})
		if err != nil {
			t.Fatalf("oracle Update(%q): %v", id, err)
		}
	}
}

// TestForestDifferential is the tentpole's correctness pin: at every
// shard count, a forest driven by a random op stream stays
// observationally identical to the single-store oracle.
func TestForestDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			f, err := NewForest(ForestOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			o := newForestOracle(t)
			compareForest(t, f, o, "empty")
			for i := 0; i < 70; i++ {
				applyRandomForestOp(t, rng, f, o)
				if i%7 == 0 || i == 69 {
					compareForest(t, f, o, fmt.Sprintf("op %d", i))
				}
			}
		})
	}
}

// TestForestRecoveryDifferential pins the durable path: a WAL-backed
// forest survives Close + parallel OpenForest recovery (with mid-stream
// auto-checkpoints) observationally intact, keeps matching the oracle
// through post-recovery writes, and rejects a shard-count change.
func TestForestRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	opt := ForestOptions{Shards: 4, AutoCheckpointRecords: 5}
	f, err := OpenForest(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	o := newForestOracle(t)
	for i := 0; i < 50; i++ {
		applyRandomForestOp(t, rng, f, o)
	}
	compareForest(t, f, o, "before close")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenForest(dir, ForestOptions{Shards: 7}); !errors.Is(err, ErrForestTopology) {
		t.Fatalf("shard-count change: err = %v, want ErrForestTopology", err)
	}

	// Shards: 0 adopts the manifest's topology.
	f, err = OpenForest(dir, ForestOptions{AutoCheckpointRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Shards() != 4 {
		t.Fatalf("recovered forest has %d shards, want 4", f.Shards())
	}
	// The registry was rebuilt from shard state, not memory: Get must
	// resolve every oracle document before any new write.
	compareForest(t, f, o, "after recovery")
	for i := 0; i < 30; i++ {
		applyRandomForestOp(t, rng, f, o)
	}
	compareForest(t, f, o, "after post-recovery ops")
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compareForest(t, f, o, "after checkpoint")
}

// TestForestEmptyAndSparse pins the fan-out edge cases: queries against
// a fully empty forest, and against one where most shards are empty.
func TestForestEmptyAndSparse(t *testing.T) {
	f, err := NewForest(ForestOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Query("//a"); err != nil || len(got) != 0 {
		t.Fatalf("empty forest query = %v, %v", got, err)
	}
	if n := len(f.Elements("*")); n != 0 {
		t.Fatalf("empty forest Elements(*) = %d", n)
	}
	if f.Count("*") != 0 || f.Len() != 0 {
		t.Fatalf("empty forest Count/Len = %d/%d", f.Count("*"), f.Len())
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	// One document, three empty shards: the merge must surface exactly it.
	if _, err := f.Put("only", "<a><b/><b/></a>"); err != nil {
		t.Fatal(err)
	}
	if got, err := f.Query("/a//b"); err != nil || len(got) != 2 {
		t.Fatalf("sparse forest query = %d results, err %v; want 2", len(got), err)
	}
	if got := f.Count("*"); got != 3 {
		t.Fatalf("sparse forest Count(*) = %d, want 3", got)
	}
	if id, ok := f.DocOf(f.Elements("b")[0]); !ok || id != "only" {
		t.Fatalf("DocOf = %q, %v", id, ok)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestForestSingleShardMatchesPlainStore pins the degenerate topology: a
// one-shard forest holding one document answers queries exactly like a
// plain Store opened on that document.
func TestForestSingleShardMatchesPlainStore(t *testing.T) {
	const src = "<a><b k=\"v\"><c/></b>text<b><c/><d/></b></a>"
	f, err := NewForest(ForestOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Put("d1", src); err != nil {
		t.Fatal(err)
	}
	plain, err := OpenString(src, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"/a", "/a//c", "//b", "b/c", "//*", "a//d"} {
		got, err := f.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		gotFP := make([]string, len(got))
		wantFP := make([]string, len(want))
		for i, el := range got {
			gotFP[i] = fingerprintElem(el)
		}
		for i, el := range want {
			wantFP[i] = fingerprintElem(el)
		}
		sort.Strings(gotFP)
		sort.Strings(wantFP)
		if fmt.Sprint(gotFP) != fmt.Sprint(wantFP) {
			t.Fatalf("query %q: forest %v, store %v", expr, gotFP, wantFP)
		}
	}
}

// TestForestWriteErrors pins the loud failure modes: unknown ids, empty
// ids, same-document write races (ErrDocBusy), and partitioners that
// route out of range.
func TestForestWriteErrors(t *testing.T) {
	f, err := NewForest(ForestOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete("ghost"); !errors.Is(err, ErrNoDoc) {
		t.Fatalf("Delete(ghost) = %v, want ErrNoDoc", err)
	}
	if err := f.Update("ghost", func(*Batch, *Elem) error { return nil }); !errors.Is(err, ErrNoDoc) {
		t.Fatalf("Update(ghost) = %v, want ErrNoDoc", err)
	}
	if _, err := f.Put("", "<a/>"); err == nil {
		t.Fatal("Put with empty id succeeded")
	}
	// A pending registry entry (write in flight) makes every same-doc
	// write fail loudly.
	f.docs["x"] = &forestDoc{shard: 0}
	if _, err := f.Put("x", "<a/>"); !errors.Is(err, ErrDocBusy) {
		t.Fatalf("Put(busy) = %v, want ErrDocBusy", err)
	}
	if err := f.Delete("x"); !errors.Is(err, ErrDocBusy) {
		t.Fatalf("Delete(busy) = %v, want ErrDocBusy", err)
	}
	if err := f.Update("x", func(*Batch, *Elem) error { return nil }); !errors.Is(err, ErrDocBusy) {
		t.Fatalf("Update(busy) = %v, want ErrDocBusy", err)
	}
	delete(f.docs, "x")
	if _, err := f.Put("x", "<a/>"); err != nil {
		t.Fatalf("Put after clearing pending entry: %v", err)
	}
	// An out-of-range partitioner is an error, not a panic or silent mod.
	bad, err := NewForest(ForestOptions{Shards: 2, Partitioner: PartitionerFunc(func(string, int) int { return 99 })})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Put("y", "<a/>"); err == nil {
		t.Fatal("out-of-range partitioner accepted")
	}
	// A failed Update surfaces the error and leaves the document intact.
	boom := errors.New("boom")
	if err := f.Update("x", func(*Batch, *Elem) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing Update = %v, want boom", err)
	}
	if _, ok := f.Get("x"); !ok {
		t.Fatal("document lost after failed Update")
	}
}

// TestForestConcurrent is the race pin: concurrent writers on distinct
// documents (parallel across shards by construction) against concurrent
// scatter-gather readers, WAL-backed. Run under -race in CI's flake gate.
func TestForestConcurrent(t *testing.T) {
	f, err := OpenForest(t.TempDir(), ForestOptions{Shards: 4, AutoCheckpointRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const writers = 6
	const rounds = 25
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < rounds; i++ {
				if _, err := f.Put(id, "<a><b/></a>"); err != nil {
					t.Errorf("writer %d Put: %v", w, err)
					return
				}
				err := f.Update(id, func(b *Batch, root *Elem) error {
					_, err := b.InsertElement(root, root.NumChildren(), "c")
					return err
				})
				if err != nil {
					t.Errorf("writer %d Update: %v", w, err)
					return
				}
				if i%5 == 4 {
					if err := f.Delete(id); err != nil {
						t.Errorf("writer %d Delete: %v", w, err)
						return
					}
					if _, err := f.Put(id, "<a/>"); err != nil {
						t.Errorf("writer %d re-Put: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { writerWG.Wait(); close(done) }()
	for reader := 0; reader < 2; reader++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := f.Query("//b"); err != nil {
					t.Errorf("reader Query: %v", err)
					return
				}
				if err := f.View(func(tx *Txn) error {
					r := tx.Stream("*")
					for i := 0; i < 10; i++ {
						if el, ok := r.Next(); ok {
							f.DocOf(el)
						}
					}
					tx.Count("c")
					return nil
				}); err != nil {
					t.Errorf("reader View: %v", err)
					return
				}
				f.Stats()
				f.Docs()
			}
		}()
	}
	writerWG.Wait()
	readerWG.Wait()
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Docs != writers {
		t.Fatalf("Stats.Docs = %d, want %d", st.Docs, writers)
	}
}

// TestForestStreamSeekInterleavings drives random Next/Seek sequences
// against merged forest streams — the ltree-level pin on the k-way merge
// honoring the forward-only Results contract across shard boundaries.
func TestForestStreamSeekInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, err := NewForest(ForestOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := f.Put(fmt.Sprintf("d%d", i), randForestDoc(rng)); err != nil {
			t.Fatal(err)
		}
	}
	tx := f.SnapshotView()
	defer tx.Close()
	for _, probe := range []func() *Results{
		func() *Results { return tx.Stream("b") },
		func() *Results {
			r, err := tx.Query("//c")
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	} {
		// Oracle: one full drain of the merged stream, with labels.
		type labeled struct {
			el  *Elem
			lab Label
		}
		var want []labeled
		r := probe()
		for el, lab, ok := r.NextLabeled(); ok; el, lab, ok = r.NextLabeled() {
			want = append(want, labeled{el, lab})
		}
		for i := 1; i < len(want); i++ {
			if want[i].lab.Begin < want[i-1].lab.Begin {
				t.Fatalf("merged stream not begin-sorted at %d: %d < %d", i, want[i].lab.Begin, want[i-1].lab.Begin)
			}
		}
		var maxBegin uint64
		if len(want) > 0 {
			maxBegin = want[len(want)-1].lab.Begin
		}
		for trial := 0; trial < 50; trial++ {
			cur := probe()
			pos := 0
			for step := 0; step < 40; step++ {
				if rng.Intn(2) == 0 {
					el, ok := cur.Next()
					if pos >= len(want) {
						if ok {
							t.Fatalf("trial %d: Next yielded past exhaustion", trial)
						}
						break
					}
					if !ok || el != want[pos].el {
						t.Fatalf("trial %d step %d: Next mismatch", trial, step)
					}
					pos++
					continue
				}
				target := uint64(rng.Int63n(int64(maxBegin) + 2))
				for pos < len(want) && want[pos].lab.Begin < target {
					pos++
				}
				el, ok := cur.Seek(target)
				if pos >= len(want) {
					if ok {
						t.Fatalf("trial %d: Seek(%d) yielded past exhaustion", trial, target)
					}
					break
				}
				if !ok || el != want[pos].el {
					t.Fatalf("trial %d step %d: Seek(%d) mismatch", trial, step, target)
				}
				pos++
			}
		}
	}
}

// TestMergeResultsComposesTagStreams pins the exported MergeResults
// surface on a single store: merging two tag streams of one Txn yields
// exactly the union in document order.
func TestMergeResultsComposesTagStreams(t *testing.T) {
	st, err := OpenString("<r><a/><x><b/><a/></x><b/><a/></r>", DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	err = st.View(func(tx *Txn) error {
		merged := MergeResults(tx.Stream("a"), nil, tx.Stream("b")).Collect()
		var want []*Elem
		for _, el := range tx.Elements("*") {
			if tag := el.Tag(); tag == "a" || tag == "b" {
				want = append(want, el)
			}
		}
		if len(merged) != len(want) {
			return fmt.Errorf("merged %d elements, want %d", len(merged), len(want))
		}
		for i := range merged {
			if merged[i] != want[i] {
				return fmt.Errorf("merged[%d] out of document order", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForestRoutingStability pins placement: a document stays on the
// shard that first held it even if the partitioner later disagrees, and
// ShardFor reports the registry's answer for live documents.
func TestForestRoutingStability(t *testing.T) {
	part := PartitionerFunc(func(string, int) int { return 0 })
	f, err := NewForest(ForestOptions{Shards: 3, Partitioner: part})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Put("pin", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if got := f.ShardFor("pin"); got != 0 {
		t.Fatalf("ShardFor(pin) = %d, want 0", got)
	}
	// Swap the partitioner's answer: existing docs must not move.
	f.part = PartitionerFunc(func(string, int) int { return 2 })
	if got := f.ShardFor("pin"); got != 0 {
		t.Fatalf("ShardFor(pin) after partitioner change = %d, want 0 (registry wins)", got)
	}
	if got := f.ShardFor("new"); got != 2 {
		t.Fatalf("ShardFor(new) = %d, want 2 (partitioner)", got)
	}
	err = f.Update("pin", func(b *Batch, root *Elem) error {
		_, err := b.InsertElement(root, 0, "b")
		return err
	})
	if err != nil {
		t.Fatalf("Update after partitioner change: %v", err)
	}
	if got, _ := f.Get("pin"); got == nil || got.NumChildren() != 1 {
		t.Fatal("update after partitioner change did not land on the pinned shard")
	}
}
