package ltree

// Root benchmark suite: one testing.B benchmark per experiment table of
// EXPERIMENTS.md (E3–E11). The cmd/ltreebench harness prints the tables
// themselves; these benches measure the wall-clock side on the same
// workloads so `go test -bench=. -benchmem` regenerates the timing
// columns. Naming: Benchmark<Experiment>/<parameters>.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/labeling"
	"github.com/ltree-db/ltree/internal/ostree"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/reltab"
	"github.com/ltree-db/ltree/internal/virtual"
	"github.com/ltree-db/ltree/internal/workload"
)

// ---------------------------------------------------------------- E3 cost

// BenchmarkInsert measures single-leaf insertion (E3) per distribution
// over a pre-loaded tree of n leaves.
func BenchmarkInsert(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, dist := range []workload.Dist{workload.Uniform, workload.Append, workload.Hotspot} {
			b.Run(fmt.Sprintf("dist=%s/n=%d", dist, n), func(b *testing.B) {
				tr, err := core.New(core.Params{F: 8, S: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Load(n); err != nil {
					b.Fatal(err)
				}
				pos := workload.NewPositions(dist, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := pos.Next(tr.Len())
					if at == 0 {
						_, err = tr.InsertFirst()
					} else {
						_, err = tr.InsertAfter(tr.LeafAt(at - 1))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(tr.Stats().AmortizedCost(), "nodes/insert")
			})
		}
	}
}

// ---------------------------------------------------------------- E4 bits

// BenchmarkBulkLoad measures the §2.2 bulk load that fixes the initial
// label widths (E4's setup step).
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := core.New(core.Params{F: 8, S: 2})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Load(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------- E5 baselines

// BenchmarkBaseline measures insertion across all labeling schemes (E5).
// Sequential is O(n) per op by design — the paper's failure mode.
func BenchmarkBaseline(b *testing.B) {
	const n = 2_000
	mk := map[string]func() (labeling.Scheme, error){
		"ltree":      func() (labeling.Scheme, error) { return labeling.NewLTree(8, 2) },
		"sequential": func() (labeling.Scheme, error) { return labeling.NewSequential(), nil },
		"gap":        func() (labeling.Scheme, error) { return labeling.NewGap(16), nil },
		"bisect":     func() (labeling.Scheme, error) { return labeling.NewBisect(), nil },
	}
	for _, name := range []string{"ltree", "sequential", "gap", "bisect"} {
		b.Run(name, func(b *testing.B) {
			sc, err := mk[name]()
			if err != nil {
				b.Fatal(err)
			}
			slots, err := sc.Load(n)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := sc.InsertAfter(slots[rng.Intn(len(slots))])
				if err != nil {
					b.Fatal(err)
				}
				slots = append(slots, s)
			}
			b.ReportMetric(float64(sc.Stats().RelabeledLeaves)/float64(b.N), "relabels/insert")
		})
	}
}

// ------------------------------------------------------------ E6/E7 sweep

// BenchmarkParamSweep measures insertion for representative (f, s) points
// of the §3.2 tuning sweep (E6, E7).
func BenchmarkParamSweep(b *testing.B) {
	for _, p := range []core.Params{{F: 4, S: 2}, {F: 8, S: 2}, {F: 12, S: 3}, {F: 16, S: 4}, {F: 32, S: 2}} {
		b.Run(fmt.Sprintf("f=%d/s=%d", p.F, p.S), func(b *testing.B) {
			tr, err := core.New(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Load(10_000); err != nil {
				b.Fatal(err)
			}
			pos := workload.NewPositions(workload.Uniform, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := pos.Next(tr.Len())
				if at == 0 {
					_, err = tr.InsertFirst()
				} else {
					_, err = tr.InsertAfter(tr.LeafAt(at - 1))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tr.Stats().AmortizedCost(), "nodes/insert")
		})
	}
}

// -------------------------------------------------------------- E9 bulk

// BenchmarkBulkInsert measures §4.1 run insertion per run size (E9);
// b.N counts inserted leaves so rows are comparable per leaf.
func BenchmarkBulkInsert(b *testing.B) {
	for _, k := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			tr, err := core.New(core.Params{F: 8, S: 2})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Load(4_096); err != nil {
				b.Fatal(err)
			}
			pos := workload.NewPositions(workload.Uniform, 5)
			b.ResetTimer()
			for inserted := 0; inserted < b.N; inserted += k {
				at := pos.Next(tr.Len() - 1)
				if _, err := tr.InsertRunAfter(tr.LeafAt(at), k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tr.Stats().AmortizedCost(), "nodes/leaf")
		})
	}
}

// ------------------------------------------------------------ E10 virtual

// BenchmarkVirtualInsert measures the virtual L-Tree's insert (E10): the
// range-count overhead §4.2 trades for storage.
func BenchmarkVirtualInsert(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vt, err := virtual.New(core.Params{F: 8, S: 2})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := vt.Load(n); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, _ := vt.LabelAt(rng.Intn(vt.Len()))
				if _, err := vt.InsertAfter(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOSTree measures the counted B-tree primitives the virtual tree
// is built from (E10's substrate).
func BenchmarkOSTree(b *testing.B) {
	const n = 100_000
	build := func() *ostree.Tree {
		t := ostree.New()
		for i := 0; i < n; i++ {
			t.Insert(uint64(i) * 7)
		}
		return t
	}
	b.Run("insert", func(b *testing.B) {
		t := ostree.New()
		for i := 0; i < b.N; i++ {
			t.Insert(uint64(i))
		}
	})
	t := build()
	rng := rand.New(rand.NewSource(8))
	b.Run("countrange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := uint64(rng.Intn(n * 7))
			t.CountRange(lo, lo+1_000)
		}
	})
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.Rank(uint64(rng.Intn(n * 7)))
		}
	})
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.SelectK(rng.Intn(n))
		}
	})
}

// -------------------------------------------------------------- E11 query

// BenchmarkQuery measures the three // query plans on xmark-lite (E11).
func BenchmarkQuery(b *testing.B) {
	x := workload.XMarkLite(40, 3)
	d, err := document.Load(x, core.Params{F: 8, S: 2})
	if err != nil {
		b.Fatal(err)
	}
	idx := d.BuildTagIndex()
	tbl, err := reltab.Build(d)
	if err != nil {
		b.Fatal(err)
	}
	path, err := query.Parse("//site//name")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("labeljoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := query.Join(d, idx, path); len(res) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("labeljoin-chunked", func(b *testing.B) {
		// Same join streamed through the chunked index's cursors: Seek
		// skips whole chunks of candidates outside the context intervals.
		cix := index.Build(d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := query.Join(d, cix, path); len(res) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("navigation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := query.Nav(d, path); len(res) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("edgejoins", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, _ := tbl.DescendantsViaEdgeJoins("site", "name"); len(res) == 0 {
				b.Fatal("no results")
			}
		}
	})
	b.Run("containment-test", func(b *testing.B) {
		items := d.Elements("item")
		names := d.Elements("name")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := items[i%len(items)]
			x := names[i%len(names)]
			if _, err := d.IsAncestor(a, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------------------- E13 delete/store

// BenchmarkStore measures the public facade end to end: labeled updates
// and containment queries through Store (the README quickstart workload).
func BenchmarkStore(b *testing.B) {
	b.Run("insert-element", func(b *testing.B) {
		st, err := OpenString(`<r><a/></r>`, DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		parent := st.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.InsertElement(parent, i%(parent.NumChildren()+1), "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert-element-hot", func(b *testing.B) {
		// The chunked-postings acceptance case: single-op commits into a
		// tag already holding 500 postings. The flat COW representation
		// paid an O(tag) copy per commit here; chunking pays O(chunk).
		st, err := OpenString(`<r><a/></r>`, DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		parent := st.Root()
		for i := 0; i < 500; i++ {
			if _, err := st.InsertElement(parent, i%(parent.NumChildren()+1), "x"); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.InsertElement(parent, i%(parent.NumChildren()+1), "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert-xml-subtree", func(b *testing.B) {
		st, err := OpenString(`<r><a/></r>`, DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		parent := st.Root()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.InsertXML(parent, 0, `<s><t>v</t></s>`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-cached-index", func(b *testing.B) {
		x := workload.XMarkLite(20, 1)
		st, err := OpenString(x.String(), DefaultParams)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Query("//item/name"); err != nil { // warm the index
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query("//item/name"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// -------------------------------------------------------- E14 concurrency

// BenchmarkStoreConcurrentQuery measures the engine's read path under
// parallelism: GOMAXPROCS readers issue queries against the published
// copy-on-write index, optionally with a background writer committing
// inserts and deletes the whole time. The seed's exclusive-lock path made
// the with-writer variant collapse to single-file throughput; now readers
// only share an RLock and the index version they loaded.
func BenchmarkStoreConcurrentQuery(b *testing.B) {
	for _, withWriter := range []bool{false, true} {
		name := "readonly"
		if withWriter {
			name = "with-writer"
		}
		b.Run(name, func(b *testing.B) {
			x := workload.XMarkLite(20, 1)
			st, err := OpenString(x.String(), DefaultParams)
			if err != nil {
				b.Fatal(err)
			}
			var stop chan struct{}
			var wg sync.WaitGroup
			if withWriter {
				// Population-stationary writer: inserting item subtrees and
				// deleting random items keeps the workload alive for the
				// whole run instead of draining the tag.
				region := st.Elements("asia")[0]
				stop = make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(6))
					for {
						select {
						case <-stop:
							return
						default:
						}
						if rng.Intn(2) == 0 {
							_, _ = st.InsertXML(region, 0, `<item><name>fresh</name></item>`)
						} else if items := st.Elements("item"); len(items) > 0 {
							_ = st.Delete(items[rng.Intn(len(items))])
						}
					}
				}()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := st.Query("//item/name"); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if withWriter {
				close(stop)
				wg.Wait()
			}
			if err := st.Check(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkStoreConcurrentQueryPred puts the zig-zag join with predicate
// pushdown under the same parallel-reader regime (the name keeps it in
// the CI multicore lane's StoreConcurrentQuery sweep): GOMAXPROCS
// readers issue a selective attribute-predicate query against the
// published COW index. The "txn" variant runs each reader inside a read
// transaction, so repeated queries share the Txn's predicate-verdict
// memo; "store" pays predicate resolution per query.
func BenchmarkStoreConcurrentQueryPred(b *testing.B) {
	x := workload.XMarkLite(20, 1)
	st, err := OpenString(x.String(), DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	const expr = "//item[@id='item42']"
	if res, err := st.Query(expr); err != nil || len(res) != 1 {
		b.Fatalf("predicate query broken before bench: %d results, %v", len(res), err)
	}
	b.Run("store", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := st.Query(expr); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("txn", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			txn := st.SnapshotView()
			defer txn.Close()
			for pb.Next() {
				res, err := txn.Query(expr)
				if err != nil {
					b.Error(err)
					return
				}
				if res.Collect() == nil {
					b.Error("predicate query lost its match")
					return
				}
			}
		})
	})
	if err := st.Check(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkForestMergedDrain isolates the forest read path over N shards
// vs the same documents in a single shard, both ways it is consumed:
// "parallel" is the one-shot Forest.Query (goroutine per shard, sorted
// runs merged slice-to-slice — scales with -cpu), "stream" is a pinned
// forest Txn drained entry-at-a-time through the sequential k-way merge
// cursor (the fixed per-entry merge tax).
func BenchmarkForestMergedDrain(b *testing.B) {
	const docs = 16
	srcs := make([]string, docs)
	for i := range srcs {
		srcs[i] = workload.XMarkLite(12, int64(i+1)).String()
	}
	part := PartitionerFunc(func(id string, n int) int {
		v := 0
		for _, r := range id {
			v = v*10 + int(r-'0')
		}
		return v % n
	})
	build := func(b *testing.B, shards int) *Forest {
		f, err := NewForest(ForestOptions{Shards: shards, Partitioner: part})
		if err != nil {
			b.Fatal(err)
		}
		for i, src := range srcs {
			if _, err := f.Put(fmt.Sprintf("%02d", i), src); err != nil {
				b.Fatal(err)
			}
		}
		return f
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel/shards-%d", shards), func(b *testing.B) {
			f := build(b, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				es, err := f.Query("//item[@id]/name")
				if err != nil {
					b.Fatal(err)
				}
				if len(es) == 0 {
					b.Fatal("empty drain")
				}
			}
		})
		b.Run(fmt.Sprintf("stream/shards-%d", shards), func(b *testing.B) {
			f := build(b, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh View per iteration: a pinned Txn's predicate memo
				// would otherwise make every iteration after the first
				// artificially warm.
				err := f.View(func(tx *Txn) error {
					res, err := tx.Query("//item[@id]/name")
					if err != nil {
						return err
					}
					n := 0
					for _, ok := res.Next(); ok; _, ok = res.Next() {
						n++
					}
					if n == 0 {
						b.Fatal("empty drain")
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestConcurrentCommit measures the write-pipeline fan-out:
// parallel committers on distinct documents against 1 vs 4 WAL-backed
// shards (run with -cpu to see the shard pipelines separate).
func BenchmarkForestConcurrentCommit(b *testing.B) {
	part := PartitionerFunc(func(id string, n int) int {
		v := 0
		for _, r := range id {
			v = v*10 + int(r-'0')
		}
		return v % n
	})
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			f, err := OpenForest(b.TempDir(), ForestOptions{Shards: shards, Partitioner: part})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			var seq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				id := fmt.Sprintf("%02d", seq.Add(1))
				if _, err := f.Put(id, "<doc/>"); err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					err := f.Update(id, func(tx *Batch, root *Elem) error {
						_, err := tx.InsertElement(root, 0, "x")
						return err
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
