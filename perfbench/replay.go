package main

// The traced run replays each workload's generated op stream in this
// process twice. The Store replay makes the public calls the ltreed
// handlers make; the layered replay makes the calls the commit and query
// paths make inside those, one layer at a time, so each layer gets its
// own span. Spans are recorded here, around the calls; the program
// itself is not instrumented.

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// leaderWAL mirrors ltreed's leader: 4 MiB segments, fsync per commit,
// auto-checkpoint at 4 MiB or 16384 records.
var leaderWAL = storage.WALOptions{SegmentBytes: 4 << 20}

func hexRoot(h index.Hash) string { return fmt.Sprintf("%x", h) }

// countConn counts the bytes a follower reads off the ship connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// replicated is a WAL-attached Store with a Follower attached over
// loopback TCP, as ltreed wires a leader and a follower.
type replicated struct {
	st        *ltree.Store
	w         *storage.WAL
	srv       *storage.ShipServer
	src       *storage.RemoteTailSource
	f         *ltree.Follower
	shipped   atomic.Int64
	bootstrap time.Duration
}

func openReplicated(dir, seedXML string) (*replicated, error) {
	r := &replicated{}
	st, err := ltree.OpenString(seedXML, ltree.DefaultParams)
	if err != nil {
		return nil, err
	}
	if r.w, err = storage.OpenWAL(dir, leaderWAL); err != nil {
		return nil, err
	}
	if err := st.WithWAL(r.w, ltree.AutoCheckpoint(4<<20, 16384)); err != nil {
		r.w.Close()
		return nil, err
	}
	r.st = st
	if r.srv, err = storage.NewShipServer(r.w); err != nil {
		r.w.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	go r.srv.Serve(ln)
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return countConn{c, &r.shipped}, nil
	}
	t0 := time.Now()
	if r.src, err = storage.OpenRemoteTail(dial, storage.RemoteOptions{}); err != nil {
		r.close()
		return nil, err
	}
	if r.f, err = ltree.OpenFollower(r.src); err != nil {
		r.close()
		return nil, err
	}
	r.bootstrap = time.Since(t0)
	return r, nil
}

func (r *replicated) close() {
	if r.f != nil {
		r.f.Close()
	}
	if r.src != nil {
		r.src.Close()
	}
	r.srv.Close()
	r.w.Close()
}

// recoverWAL times LoadLatest on a closed WAL directory (checkpoint plus
// log replay) and then a Checkpoint of the recovered store, checking the
// recovered root.
func recoverWAL(dir, wantRoot string, lm map[string]float64) error {
	w, err := storage.OpenWAL(dir, leaderWAL)
	if err != nil {
		return err
	}
	defer w.Close()
	t0 := time.Now()
	st, err := ltree.LoadLatest(w)
	if err != nil {
		return err
	}
	lm["storage.replay_ms"] = ms(time.Since(t0))
	if got := hexRoot(st.RootHash()); got != wantRoot {
		return fmt.Errorf("LoadLatest root %s, want %s", got, wantRoot)
	}
	t0 = time.Now()
	if _, err := st.Checkpoint(); err != nil {
		return err
	}
	lm["storage.checkpoint_ms"] = ms(time.Since(t0))
	return nil
}

// rtSample reads the runtime counters the GC metrics come from.
type rtSample struct{ gcCPU, totalCPU, allocs float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return float64(s[i].Value.Uint64())
	}
	return rtSample{val(0), val(1), val(2)}
}

// into records the GC share of CPU and the allocation per op between two
// samples. The CPU classes advance only when a GC cycle ends, so a window
// without one leaves gc_cpu_frac at 0.
func (a rtSample) into(lm map[string]float64, b rtSample, ops int) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		lm["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
	lm["runtime.alloc_bytes_per_op"] = (b.allocs - a.allocs) / float64(max(ops, 1))
}

// overheadAndTrace runs the Store replay twice, each time on a fresh
// set-up from a collected heap: first mixing ops with and without layer
// spans, for trace.overhead_frac, then with every span, for the
// per-layer metrics.
func overheadAndTrace(pass func(*tracer, map[string]float64) error, tr *tracer, lm map[string]float64) error {
	mixed := newTracer(allSpans)
	mixed.mix = rand.New(rand.NewSource(1))
	runtime.GC()
	if err := pass(mixed, map[string]float64{}); err != nil {
		return err
	}
	runtime.GC()
	if err := pass(tr, lm); err != nil {
		return err
	}
	lm["trace.overhead_frac"] = mixed.overhead()
	return nil
}

func single(res []*ltree.Elem, err error) (*ltree.Elem, error) {
	if err != nil {
		return nil, err
	}
	if len(res) != 1 {
		return nil, fmt.Errorf("want 1 result, got %d", len(res))
	}
	return res[0], nil
}

// drain counts a Txn query's results without materializing them.
func drain(tx *ltree.Txn, q string) (int, error) {
	defer tx.Close()
	res, err := tx.Query(q)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ok := res.Next(); ok; _, ok = res.Next() {
		n++
	}
	return n, nil
}

// medianUS records each span's median duration, in µs, as the metric
// named after the span.
func medianUS(tr *tracer, lm map[string]float64, spans ...string) {
	d := tr.durations()
	for _, s := range spans {
		lm[s+"_us"] = us(median(d[s]))
	}
}

// ---- edit ----

// traceEdit replays the edit stream. The Store replay runs every insert
// through Store.Query (parent) and Store.Update/Batch.InsertXML with a
// follower attached; the layered replay repeats the commit path call by
// call. Both roots must equal the root ltreed reached.
func traceEdit(env runEnv, seedXML string, r *e2e, tr *tracer, lm map[string]float64) error {
	ops := r.edits
	var storeRoot string
	pass := 0
	storeReplay := func(tr *tracer, lm map[string]float64) error {
		pass++
		dir := filepath.Join(env.dir, fmt.Sprintf("store-wal%d", pass))
		rp, err := openReplicated(dir, seedXML)
		if err != nil {
			return err
		}
		st, f := rp.st, rp.f
		c0, rt0, ship0 := st.Stats(), readRuntime(), rp.shipped.Load()
		persons := 5 * editScale
		for i, o := range ops {
			var opErr error
			tr.do(i, -1, "op.insert", func(root int) {
				var parent *ltree.Elem
				tr.do(i, root, "store.parent_lookup", func(int) { parent, opErr = single(st.Query(o.parent)) })
				if opErr != nil {
					return
				}
				tr.do(i, root, "store.update", func(int) {
					opErr = st.Update(func(b *ltree.Batch) error {
						_, err := b.InsertXML(parent, o.idx, o.frag)
						return err
					})
				})
				if opErr != nil {
					return
				}
				seq := rp.w.Seq()
				tr.do(i, root, "follower.lag", func(int) { opErr = f.WaitFor(seq, 10*time.Second) })
				if opErr != nil {
					return
				}
				tr.do(i, root, "store.ryw_query", func(int) {
					var e *ltree.Elem
					if e, opErr = single(f.Query(rywQuery(o))); opErr == nil && textOf(e) != o.want {
						opErr = fmt.Errorf("ryw text %q, want %q", textOf(e), o.want)
					}
				})
				if o.tag == "person" {
					persons++
				}
				if i%10 == 9 && opErr == nil {
					tr.do(i, root, "store.path_query", func(int) {
						res, err := st.Query(pathQuery)
						if opErr = err; err == nil && len(res) != persons {
							opErr = fmt.Errorf("path query: %d results, want %d", len(res), persons)
						}
					})
				}
			})
			if opErr != nil {
				rp.close()
				return fmt.Errorf("store replay insert %s: %w", o.id, opErr)
			}
		}
		rt0.into(lm, readRuntime(), len(ops))
		c1 := st.Stats()
		lm["core.relabels_per_insert"] = float64(c1.Relabelings()-c0.Relabelings()) / float64(len(ops))
		lm["core.splits_per_insert"] = float64(c1.Splits-c0.Splits) / float64(len(ops))
		lm["core.bits_per_label"] = float64(st.BitsPerLabel())
		lm["storage.ship_bytes_per_commit"] = float64(rp.shipped.Load()-ship0) / float64(len(ops))
		lm["follower.bootstrap_ms"] = ms(rp.bootstrap)
		storeRoot = hexRoot(st.RootHash())
		froot := hexRoot(f.RootHash())
		rp.close()
		if froot != storeRoot {
			return fmt.Errorf("store replay: follower root %s != leader root %s", froot, storeRoot)
		}
		return recoverWAL(dir, storeRoot, lm)
	}
	if err := overheadAndTrace(storeReplay, tr, lm); err != nil {
		return err
	}

	layeredRoot, err := layeredEdit(env, seedXML, ops, tr, lm)
	if err != nil {
		return err
	}

	d := tr.durations()
	lookup, update := d["store.parent_lookup"], d["store.update"]
	perOp := make([]time.Duration, len(lookup))
	for i := range lookup {
		perOp[i] = lookup[i] + update[i]
	}
	medianUS(tr, lm, "store.parent_lookup", "store.update", "follower.lag")
	if w := r.s.class["write"]; len(w) > 0 {
		lm["ltreed.write_overhead_ms"] = ms(median(w) - median(perOp))
	}
	lm["store.stage_coverage"] = tr.childTime("layered.commit_path").Seconds() / sum(perOp).Seconds()

	if storeRoot != r.roots[0] || layeredRoot != r.roots[0] {
		return fmt.Errorf("roots differ: ltreed %s, Store replay %s, layered replay %s", r.roots[0], storeRoot, layeredRoot)
	}
	return nil
}

// layered is one document with its current index version, as a Store
// holds it, plus the WAL its commits append to.
type layered struct {
	doc *document.Doc
	ix  *index.Index
	w   *storage.WAL
}

func newLayered(xml string, walDir string, lm map[string]float64) (*layered, error) {
	doc, err := document.Parse(strings.NewReader(xml), ltree.DefaultParams)
	if err != nil {
		return nil, err
	}
	doc.TrackChanges()
	t0 := time.Now()
	ix := index.Build(doc)
	lm["index.build_ms"] += ms(time.Since(t0))
	doc.TakeChanges()
	l := &layered{doc: doc, ix: ix}
	if walDir != "" {
		doc.TrackOps()
		// Appends never sync on their own, so the fsync is its own span;
		// the commit path still syncs once per commit.
		if l.w, err = storage.OpenWAL(walDir, storage.WALOptions{SyncEvery: 1 << 30, SegmentBytes: leaderWAL.SegmentBytes}); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// commit mirrors Store.commitLocked: patch the index, hash it, encode
// the ops with the root stamp, append and fsync. It returns the payload
// a follower would be shipped.
func (l *layered) commit(tr *tracer, op, root int) ([]byte, error) {
	var next *index.Index
	var err error
	tr.do(op, root, "index.apply", func(int) { next, err = l.ix.Apply(l.doc, l.doc.TakeChanges()) })
	if err != nil {
		return nil, err
	}
	l.ix = next
	var h index.Hash
	tr.do(op, root, "index.root_hash", func(int) { h = next.RootHash() })
	var payload []byte
	tr.do(op, root, "storage.op_encode", func(int) {
		ops := append(l.doc.TakeOps(), storage.Op{Kind: storage.OpStamp, Root: [32]byte(h)})
		payload, err = storage.EncodeOps(ops)
	})
	if err != nil {
		return nil, err
	}
	tr.do(op, root, "storage.wal_append", func(int) { _, err = l.w.AppendBatch(payload) })
	if err != nil {
		return nil, err
	}
	tr.do(op, root, "storage.wal_fsync", func(int) { err = l.w.Sync() })
	return payload, err
}

// run evaluates a path the way Txn.Query does: parse, then drain the
// lazy join. Rooted paths first resolve the root through Index.All,
// which is timed on its own.
func (l *layered) run(tr *tracer, op, root int, q, joinSpan string) ([]document.Entry, error) {
	return runOn(tr, op, root, q, joinSpan, []*index.Index{l.ix})
}

func runOn(tr *tracer, op, root int, q, joinSpan string, ixs []*index.Index) ([]document.Entry, error) {
	var p *query.Path
	var err error
	tr.do(op, root, "query.parse", func(int) { p, err = query.Parse(q) })
	if err != nil {
		return nil, err
	}
	if p.Rooted {
		tr.do(op, root, "index.all_sort", func(int) {
			for _, ix := range ixs {
				ix.All()
			}
		})
	}
	var out []document.Entry
	tr.do(op, root, joinSpan, func(int) {
		curs := make([]document.Cursor, len(ixs))
		for i, ix := range ixs {
			curs[i] = query.JoinCursorWith(ix, p, query.EvalOptions{Memo: query.NewPredMemo()})
		}
		cur := curs[0]
		if len(curs) > 1 {
			cur = query.Merge(curs...)
		}
		for e, ok := cur.Next(); ok; e, ok = cur.Next() {
			out = append(out, e)
		}
	})
	return out, nil
}

func entryText(e document.Entry) string { return textOf(e.Node) }

func layeredEdit(env runEnv, seedXML string, ops []op, tr *tracer, lm map[string]float64) (string, error) {
	l, err := newLayered(seedXML, filepath.Join(env.dir, "layered-wal"), lm)
	if err != nil {
		return "", err
	}
	defer l.w.Close()
	// The follower mirror applies each shipped payload as
	// Store.applyShippedLocked does.
	fl, err := newLayered(seedXML, "", map[string]float64{})
	if err != nil {
		return "", err
	}
	bytes0, _ := l.w.LiveLog()
	persons := 5 * editScale
	base := len(ops)
	for i, o := range ops {
		var opErr error
		n := base + i
		tr.do(n, -1, "op.layered_insert", func(root int) {
			var payload []byte
			// commit_path covers what Store.Query of the parent plus
			// Store.Update do; its children are the layer stages.
			tr.do(n, root, "layered.commit_path", func(cp int) {
				var res []document.Entry
				if res, opErr = l.run(tr, n, cp, o.parent, "query.parent_join"); opErr == nil && len(res) != 1 {
					opErr = fmt.Errorf("parent %s: %d matches", o.parent, len(res))
				}
				if opErr != nil {
					return
				}
				var frag *xmldom.Document
				tr.do(n, cp, "xmldom.fragment_parse", func(int) { frag, opErr = xmldom.ParseString(o.frag) })
				if opErr != nil {
					return
				}
				tr.do(n, cp, "document.insert", func(int) { opErr = l.doc.InsertSubtree(res[0].Node, o.idx, frag.Root) })
				if opErr == nil {
					payload, opErr = l.commit(tr, n, cp)
				}
			})
			if opErr != nil {
				return
			}
			tr.do(n, root, "follower.apply", func(int) { opErr = fl.apply(payload) })
			if opErr != nil {
				return
			}
			var res []document.Entry
			if res, opErr = fl.run(tr, n, root, rywQuery(o), "query.ryw_join"); opErr == nil && (len(res) != 1 || entryText(res[0]) != o.want) {
				opErr = fmt.Errorf("ryw on the follower mirror: %d results", len(res))
			}
			if o.tag == "person" {
				persons++
			}
			if i%10 == 9 && opErr == nil {
				if res, opErr = l.run(tr, n, root, pathQuery, "query.path_join"); opErr == nil && len(res) != persons {
					opErr = fmt.Errorf("path query: %d results, want %d", len(res), persons)
				}
			}
		})
		if opErr != nil {
			return "", fmt.Errorf("layered replay insert %s: %w", o.id, opErr)
		}
	}
	bytes1, _ := l.w.LiveLog()
	lm["storage.wal_bytes_per_write"] = float64(bytes1-bytes0) / float64(len(ops))
	medianUS(tr, lm, "xmldom.fragment_parse", "document.insert", "index.apply", "index.root_hash", "index.all_sort",
		"storage.op_encode", "storage.wal_append", "storage.wal_fsync", "follower.apply", "query.parse", "query.path_join")
	root := hexRoot(l.ix.RootHash())
	if fr := hexRoot(fl.ix.RootHash()); fr != root {
		return "", fmt.Errorf("layered follower root %s != leader root %s", fr, root)
	}
	return root, nil
}

// apply mirrors Store.applyShippedLocked: replay the payload's ops,
// patch the index, and verify the stamped root.
func (l *layered) apply(payload []byte) error {
	info, err := l.doc.ApplyPayload(payload)
	if err != nil {
		return err
	}
	next, err := l.ix.Apply(l.doc, l.doc.TakeChanges())
	if err != nil {
		return err
	}
	l.ix = next
	if info.HasRoot && next.RootHash() != index.Hash(info.Root) {
		return fmt.Errorf("follower mirror root %x, stamped %x", next.RootHash(), info.Root)
	}
	return nil
}

// ---- read ----

// readOps regenerates what each read client sent, capped so the replay
// stays short.
func readOps(env runEnv, r *e2e, names []string) [2][]op {
	var out [2][]op
	for c := range out {
		st := &readStream{rng: rand.New(rand.NewSource(env.seed*7 + int64(c))), items: len(names), names: names}
		for i := 0; i < min(r.executed[c], replayCap); i++ {
			out[c] = append(out[c], st.next())
		}
	}
	return out
}

// replayCap bounds the queries the read replays repeat per client.
const replayCap = 3000

func traceRead(env runEnv, seedXML string, names []string, wantPath, wantScan int, r *e2e, tr *tracer, lm map[string]float64) error {
	streams := readOps(env, r, names)
	want := map[string]int{"point": 1, "path": wantPath, "scan": wantScan}
	pass := 0
	storeReplay := func(tr *tracer, lm map[string]float64) error {
		pass++
		dir := filepath.Join(env.dir, fmt.Sprintf("store-wal%d", pass))
		rp, err := openReplicated(dir, seedXML)
		if err != nil {
			return err
		}
		nodes := []interface{ SnapshotView() *ltree.Txn }{rp.st, rp.f}
		rt0 := readRuntime()
		n := 0
		for c, ops := range streams {
			for _, o := range ops {
				var got int
				var qerr error
				tr.do(n, -1, "op."+o.kind, func(root int) {
					tr.do(n, root, "store.txn_query."+o.kind, func(int) { got, qerr = drain(nodes[c].SnapshotView(), o.query) })
				})
				if qerr == nil && got != want[o.kind] {
					qerr = fmt.Errorf("%d results, want %d", got, want[o.kind])
				}
				if qerr != nil {
					rp.close()
					return fmt.Errorf("store replay %q: %w", o.query, qerr)
				}
				n++
			}
		}
		rt0.into(lm, readRuntime(), n)
		lm["core.bits_per_label"] = float64(rp.st.BitsPerLabel())
		lm["follower.bootstrap_ms"] = ms(rp.bootstrap)
		root := hexRoot(rp.st.RootHash())
		rp.close()
		return recoverWAL(dir, root, lm)
	}
	if err := overheadAndTrace(storeReplay, tr, lm); err != nil {
		return err
	}

	l, err := newLayered(seedXML, "", lm)
	if err != nil {
		return err
	}
	var cs index.CursorStats
	l.ix.SetCursorStats(&cs)
	warm := newTracer(noSpans)
	for _, q := range []string{pointQuery("item0"), pathQuery, scanQuery} {
		if _, err := l.run(warm, 0, -1, q, "warm"); err != nil {
			return err
		}
	}
	qr := &queryReplay{tr: tr, want: want, cs: &cs, run: func(tr *tracer, n, root int, q, span string) ([]document.Entry, error) {
		return l.run(tr, n, root, q, span)
	}}
	n := 1 << 30
	for _, ops := range streams {
		for _, o := range ops {
			if err := qr.do(n, o); err != nil {
				return err
			}
			n++
		}
	}
	qr.metrics(lm)
	if got := hexRoot(l.ix.RootHash()); got != r.roots[0] {
		return fmt.Errorf("layered seed root %s != ltreed root %s", got, r.roots[0])
	}
	d := tr.durations()
	lm["ltreed.scan_overhead_ms"] = ms(median(r.s.class["query_scan"]) - median(d["store.txn_query.scan"]))
	return nil
}

// queryReplay replays queries through query.Parse and the lazy join,
// checks them, and derives the query-layer metrics.
type queryReplay struct {
	tr     *tracer
	run    func(tr *tracer, n, root int, q, span string) ([]document.Entry, error)
	want   map[string]int
	cs     *index.CursorStats
	points int
	dec    uint64
	skip   uint64
}

func (qr *queryReplay) do(n int, o op) error {
	var res []document.Entry
	var err error
	dec0, skip0 := qr.cs.Decoded.Load(), qr.cs.Skipped()
	qr.tr.do(n, -1, "op.layered_"+o.kind, func(root int) { res, err = qr.run(qr.tr, n, root, o.query, "query."+o.kind+"_join") })
	if err == nil && len(res) != qr.want[o.kind] {
		err = fmt.Errorf("%d results, want %d", len(res), qr.want[o.kind])
	}
	if err == nil && o.kind == "point" && entryText(res[0]) != o.want {
		err = fmt.Errorf("text %q, want %q", entryText(res[0]), o.want)
	}
	if err != nil {
		return fmt.Errorf("layered replay %q: %w", o.query, err)
	}
	if o.kind == "point" {
		qr.points++
		qr.dec += qr.cs.Decoded.Load() - dec0
		qr.skip += qr.cs.Skipped() - skip0
	}
	return nil
}

func (qr *queryReplay) metrics(lm map[string]float64) {
	medianUS(qr.tr, lm, "query.point_join", "query.path_join", "query.scan_join", "query.parse", "index.all_sort")
	if qr.points > 0 {
		lm["query.point_chunks_decoded"] = float64(qr.dec) / float64(qr.points)
		if qr.dec+qr.skip > 0 {
			lm["query.point_chunk_skip_frac"] = float64(qr.skip) / float64(qr.dec+qr.skip)
		}
	}
}

// ---- forest ----

func forestOps(env runEnv, r *e2e) []op {
	st := &forestStream{rng: rand.New(rand.NewSource(env.seed)), fs: r.forest}
	ops := make([]op, r.executed[0])
	for i := range ops {
		ops[i] = st.next()
	}
	return ops
}

// forestReference replays every put the forest client sent on an
// in-memory forest and returns its shard roots.
func forestReference(env runEnv, r *e2e) ([]string, error) {
	f, err := ltree.NewForest(ltree.ForestOptions{Shards: forestShard})
	if err != nil {
		return nil, err
	}
	for k := 0; k < forestDocs; k++ {
		if _, err := f.Put(forestID(k), r.forest.xml[k][0]); err != nil {
			return nil, err
		}
	}
	for _, o := range forestOps(env, r) {
		if o.kind == "put" {
			if _, err := f.Put(forestID(o.doc), r.forest.xml[o.doc][o.version]); err != nil {
				return nil, err
			}
		}
	}
	var roots []string
	for i := 0; i < f.Shards(); i++ {
		roots = append(roots, hexRoot(f.ShardStore(i).RootHash()))
	}
	return roots, nil
}

func traceForest(env runEnv, r *e2e, tr *tracer, lm map[string]float64) error {
	fs := r.forest
	ops := forestOps(env, r)
	wantScan := forestDocs * fs.scan
	var storeRoots []string
	pass := 0
	storeReplay := func(tr *tracer, lm map[string]float64) error {
		pass++
		f, err := ltree.OpenForest(filepath.Join(env.dir, fmt.Sprintf("store-forest%d", pass)), ltree.ForestOptions{Shards: forestShard})
		if err != nil {
			return err
		}
		defer f.Close()
		for k := 0; k < forestDocs; k++ {
			if _, err := f.Put(forestID(k), fs.xml[k][0]); err != nil {
				return err
			}
		}
		rt0 := readRuntime()
		for i, o := range ops {
			var err error
			tr.do(i, -1, "op."+o.kind, func(root int) {
				switch o.kind {
				case "put":
					tr.do(i, root, "forest.put", func(int) { _, err = f.Put(forestID(o.doc), fs.xml[o.doc][o.version]) })
				case "point":
					var n int
					tr.do(i, root, "forest.txn_query.point", func(int) { n, err = drain(f.SnapshotView(), o.query) })
					if err == nil && n != 1 {
						err = fmt.Errorf("%d results, want 1", n)
					}
				case "scan":
					var n int
					tr.do(i, root, "forest.scatter_scan", func(int) { n, err = drain(f.SnapshotView(), o.query) })
					if err == nil && n != wantScan {
						err = fmt.Errorf("%d results, want %d", n, wantScan)
					}
				}
			})
			if err != nil {
				return fmt.Errorf("forest replay op %d %s: %w", i, o.kind, err)
			}
		}
		rt0.into(lm, readRuntime(), len(ops))
		bits := 0
		storeRoots = storeRoots[:0]
		for i := 0; i < f.Shards(); i++ {
			bits = max(bits, f.ShardStore(i).BitsPerLabel())
			storeRoots = append(storeRoots, hexRoot(f.ShardStore(i).RootHash()))
		}
		lm["core.bits_per_label"] = float64(bits)
		return nil
	}
	if err := overheadAndTrace(storeReplay, tr, lm); err != nil {
		return err
	}

	layeredRoots, err := layeredForest(env, fs, ops, tr, lm)
	if err != nil {
		return err
	}
	want, store, lay := strings.Join(r.roots, ","), strings.Join(storeRoots, ","), strings.Join(layeredRoots, ",")
	if store != want || lay != want {
		return fmt.Errorf("shard roots differ: ltreed %s, Store replay %s, layered replay %s", want, store, lay)
	}

	d := tr.durations()
	medianUS(tr, lm, "forest.put", "forest.scatter_scan")
	if w := r.s.class["write"]; len(w) > 0 {
		lm["ltreed.write_overhead_ms"] = ms(median(w) - median(d["forest.put"]))
	}
	lm["ltreed.scan_overhead_ms"] = ms(median(r.s.class["query_scan"]) - median(d["forest.scatter_scan"]))
	lm["store.stage_coverage"] = tr.childTime("op.layered_put").Seconds() / sum(d["forest.put"]).Seconds()
	return nil
}

// layeredForest mirrors Forest.Put shard by shard: every shard is one
// document whose root holds the forest documents as children, and a put
// replaces a document in one commit. Queries run the lazy join on every
// shard and merge, as the forest's scatter-gather does.
func layeredForest(env runEnv, fs *forestSet, ops []op, tr *tracer, lm map[string]float64) ([]string, error) {
	shards := make([]*layered, forestShard)
	for i := range shards {
		l, err := newLayered("<ltree-forest-shard/>", filepath.Join(env.dir, fmt.Sprintf("layered-shard%d", i)), map[string]float64{})
		if err != nil {
			return nil, err
		}
		defer l.w.Close()
		shards[i] = l
	}
	docRoots := map[int]*xmldom.Node{}
	part := ltree.HashPartitioner()
	put := func(tr *tracer, n, root, k int, xml string) error {
		l := shards[part.Shard(forestID(k), forestShard)]
		var frag *xmldom.Document
		var err error
		tr.do(n, root, "xmldom.fragment_parse", func(int) { frag, err = xmldom.ParseString(xml) })
		if err != nil {
			return err
		}
		frag.Root.SetAttr("ltree.doc", forestID(k))
		if prev := docRoots[k]; prev != nil {
			tr.do(n, root, "document.delete", func(int) { err = l.doc.DeleteSubtree(prev) })
			if err != nil {
				return err
			}
		}
		sr := l.doc.X.Root
		tr.do(n, root, "document.insert", func(int) { err = l.doc.InsertSubtree(sr, sr.NumChildren(), frag.Root) })
		if err != nil {
			return err
		}
		docRoots[k] = frag.Root
		_, err = l.commit(tr, n, root)
		return err
	}
	for k := 0; k < forestDocs; k++ {
		if err := put(newTracer(noSpans), 0, -1, k, fs.xml[k][0]); err != nil {
			return nil, err
		}
	}
	build := 0.0
	for _, l := range shards {
		t0 := time.Now()
		index.Build(l.doc)
		build += ms(time.Since(t0))
	}
	lm["index.build_ms"] = build

	var cs index.CursorStats
	qr := &queryReplay{tr: tr, cs: &cs, want: map[string]int{"point": 1, "scan": forestDocs * fs.scan},
		run: func(tr *tracer, n, root int, q, span string) ([]document.Entry, error) {
			ixs := make([]*index.Index, len(shards))
			for i, l := range shards {
				l.ix.SetCursorStats(&cs)
				ixs[i] = l.ix
			}
			return runOn(tr, n, root, q, span, ixs)
		}}
	var bytes0 int64
	for _, l := range shards {
		b, _ := l.w.LiveLog()
		bytes0 += b
	}
	base, puts := 2*len(ops), 0
	for i, o := range ops {
		n := base + i
		var err error
		if o.kind == "put" {
			puts++
			tr.do(n, -1, "op.layered_put", func(root int) { err = put(tr, n, root, o.doc, fs.xml[o.doc][o.version]) })
		} else {
			err = qr.do(n, o)
		}
		if err != nil {
			return nil, fmt.Errorf("layered forest op %d: %w", i, err)
		}
	}
	qr.metrics(lm)
	var bytes1 int64
	var roots []string
	for _, l := range shards {
		b, _ := l.w.LiveLog()
		bytes1 += b
		roots = append(roots, hexRoot(l.ix.RootHash()))
	}
	lm["storage.wal_bytes_per_write"] = float64(bytes1-bytes0) / float64(max(puts, 1))
	medianUS(tr, lm, "xmldom.fragment_parse", "document.insert", "index.apply", "index.root_hash",
		"storage.op_encode", "storage.wal_append", "storage.wal_fsync")
	return roots, nil
}
