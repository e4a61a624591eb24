package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/stats"
	"github.com/ltree-db/ltree/internal/workload"
)

// expForest measures what document partitioning buys over one store
// (E20): N shards mean N independent write pipelines, N WALs to replay
// in parallel at recovery, and a k-way merged read path that must not
// tax queries for the privilege. Three questions:
//
//	commit throughput  concurrent writers on distinct documents against
//	                   1/4/16 shards, WAL-backed — writes route to one
//	                   shard each, so shard count multiplies the
//	                   lock + group-commit pipelines.
//	recovery           OpenForest replays every shard concurrently:
//	                   wall-clock for the same documents and the same
//	                   op log split 4 ways vs one way.
//	merged drain       draining a scatter-gather query over 4 shards vs
//	                   the same data in a single shard. The one-shot
//	                   Forest.Query scatters per-shard goroutines and
//	                   merges sorted runs slice-to-slice — with cores it
//	                   must stay within 1.15× of one shard. The pinned
//	                   forest Txn streaming drain (sequential k-way merge
//	                   cursor) is reported alongside for visibility into
//	                   the per-entry merge tax.
func expForest(c config) {
	docs, docScale, writers, opsPerWriter, reps := 24, 8, 8, 40, 5
	if c.quick {
		docs, docScale, writers, opsPerWriter, reps = 8, 4, 4, 15, 3
	}
	if c.n > 0 {
		docs = c.n
	}
	if docs < writers {
		writers = docs
	}
	srcs := make([]string, docs)
	for i := range srcs {
		srcs[i] = workload.XMarkLite(docScale, int64(i+1)).String()
	}
	fmt.Printf("%d xmark-lite docs (scale %d, %d bytes each serialized), %d writers × %d commits, best of %d drains\n\n",
		docs, docScale, len(srcs[0]), writers, opsPerWriter, reps)

	// Round-robin placement on the doc number: the experiment measures
	// pipeline parallelism, so writers must spread across shards
	// deterministically rather than by hash luck.
	part := ltree.PartitionerFunc(func(id string, n int) int {
		num, _ := strconv.Atoi(id[len(id)-2:])
		return num % n
	})
	docID := func(i int) string { return fmt.Sprintf("doc-%02d", i) }

	seed := func(f *ltree.Forest) error {
		for i, src := range srcs {
			if _, err := f.Put(docID(i), src); err != nil {
				return err
			}
		}
		return nil
	}

	// ---- commit throughput: concurrent writers vs shard count ----
	tbl := stats.NewTable(os.Stdout, "shards", "commits/sec", "vs 1 shard", "docs/shard")
	var rate1, rate4 float64
	for _, shards := range []int{1, 4, 16} {
		dir, err := os.MkdirTemp("", "ltreebench-forest-*")
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		f, err := ltree.OpenForest(dir, ltree.ForestOptions{Shards: shards, Partitioner: part})
		if err != nil {
			fmt.Println("error:", err)
			os.RemoveAll(dir)
			return
		}
		if err := seed(f); err != nil {
			fmt.Println("error:", err)
			f.Close()
			os.RemoveAll(dir)
			return
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := docID(w)
				for i := 0; i < opsPerWriter; i++ {
					errs[w] = f.Update(id, func(b *ltree.Batch, root *ltree.Elem) error {
						_, err := b.InsertXML(root, 0, "<item><name>fresh</name></item>")
						return err
					})
					if errs[w] != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				fmt.Println("error:", err)
				f.Close()
				os.RemoveAll(dir)
				return
			}
		}
		rate := float64(writers*opsPerWriter) / elapsed.Seconds()
		switch shards {
		case 1:
			rate1 = rate
		case 4:
			rate4 = rate
		}
		if err := f.Check(); err != nil {
			fmt.Println("error:", err)
		}
		tbl.Row(strconv.Itoa(shards), rate, rate/rate1, float64(docs)/float64(shards))
		recordMetric(fmt.Sprintf("commit_throughput_shards_%d", shards), rate, "commits/sec")
		f.Close()
		os.RemoveAll(dir)
	}
	tbl.Flush()
	fmt.Println()

	// ---- recovery: parallel shard replay vs one log ----
	// Same documents, same post-seed commit log, no checkpoints after
	// boot — recovery replays everything; only the split differs.
	buildForRecovery := func(shards int) (string, *ltree.Forest, error) {
		dir, err := os.MkdirTemp("", "ltreebench-forest-rec-*")
		if err != nil {
			return "", nil, err
		}
		f, err := ltree.OpenForest(dir, ltree.ForestOptions{Shards: shards, Partitioner: part})
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
		if err := seed(f); err == nil {
			for i := 0; i < docs*3; i++ {
				err = f.Update(docID(i%docs), func(b *ltree.Batch, root *ltree.Elem) error {
					_, e := b.InsertXML(root, 0, "<item><name>replayed</name></item>")
					return e
				})
				if err != nil {
					break
				}
			}
		} else {
			f.Close()
			os.RemoveAll(dir)
			return "", nil, err
		}
		return dir, f, nil
	}
	recover := func(dir string) (*ltree.Forest, time.Duration, error) {
		best := time.Duration(0)
		var f *ltree.Forest
		runs := 2
		if c.quick {
			runs = 1
		}
		for r := 0; r < runs; r++ {
			if f != nil {
				f.Close()
			}
			start := time.Now()
			var err error
			f, err = ltree.OpenForest(dir, ltree.ForestOptions{})
			if err != nil {
				return nil, 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return f, best, nil
	}

	times := map[int]time.Duration{}
	elems := map[int]int{}
	var recovered []*ltree.Forest
	var recDirs []string
	for _, shards := range []int{1, 4} {
		dir, f, err := buildForRecovery(shards)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		f.Close()
		rf, d, err := recover(dir)
		if err != nil {
			fmt.Println("error:", err)
			os.RemoveAll(dir)
			return
		}
		times[shards] = d
		elems[shards] = rf.Count("*")
		recovered = append(recovered, rf)
		recDirs = append(recDirs, dir)
		recordMetric(fmt.Sprintf("recovery_ms_shards_%d", shards), float64(d.Milliseconds()), "ms")
	}
	defer func() {
		for i, rf := range recovered {
			rf.Close()
			os.RemoveAll(recDirs[i])
		}
	}()
	fmt.Printf("recovery (checkpoint + full replay, %d docs + %d update commits):\n", docs, docs*3)
	fmt.Printf("  1 shard : %8.1f ms\n", float64(times[1].Microseconds())/1000)
	fmt.Printf("  4 shards: %8.1f ms  (%.2fx faster)\n\n",
		float64(times[4].Microseconds())/1000, times[1].Seconds()/times[4].Seconds())

	// ---- merged drain: the read-path cost of scatter-gather ----
	// Two drains per forest. Forest.Query is the one-shot surface: the
	// per-shard pipelines run on their own goroutines and the sorted runs
	// are merged slice-to-slice, so with cores available the 4-shard
	// drain should be at worst marginally slower — and often faster —
	// than one shard. The pinned forest Txn drain streams entry-at-a-time
	// through the k-way merge cursor: strictly sequential, it pays a
	// fixed per-entry dispatch tax and is reported for visibility.
	const drainExpr = "//item[@id]/name"
	drain := func(f *ltree.Forest) (time.Duration, int, error) {
		best := time.Duration(0)
		n := 0
		for r := 0; r < reps; r++ {
			start := time.Now()
			es, err := f.Query(drainExpr)
			if err != nil {
				return 0, 0, err
			}
			n = len(es)
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, n, nil
	}
	drainStream := func(f *ltree.Forest) (time.Duration, int, error) {
		best := time.Duration(0)
		n := 0
		for r := 0; r < reps; r++ {
			start := time.Now()
			n = 0
			err := f.View(func(tx *ltree.Txn) error {
				res, err := tx.Query(drainExpr)
				if err != nil {
					return err
				}
				for _, ok := res.Next(); ok; _, ok = res.Next() {
					n++
				}
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, n, nil
	}
	d1, n1, err := drain(recovered[0])
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	d4, n4, err := drain(recovered[1])
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ratio := d4.Seconds() / d1.Seconds()
	fmt.Printf("parallel drain of %s (%d matches, Forest.Query): 1 shard %.2f ms, 4 shards %.2f ms (%.2fx)\n",
		drainExpr, n1, float64(d1.Microseconds())/1000, float64(d4.Microseconds())/1000, ratio)
	recordMetric("drain_ratio_4shard_vs_1shard", ratio, "x")
	s1, _, err := drainStream(recovered[0])
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s4, sn4, err := drainStream(recovered[1])
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	streamRatio := s4.Seconds() / s1.Seconds()
	fmt.Printf("streaming drain (pinned forest Txn, k-way merge cursor): 1 shard %.2f ms, 4 shards %.2f ms (%.2fx)\n\n",
		float64(s1.Microseconds())/1000, float64(s4.Microseconds())/1000, streamRatio)
	recordMetric("stream_drain_ratio_4shard_vs_1shard", streamRatio, "x")

	// ---- verdicts ----
	verdict(n1 == n4 && n4 == sn4 && elems[1] == elems[4] && recovered[0].Len() == docs && recovered[1].Len() == docs,
		fmt.Sprintf("sharding is invisible to results: both recovered forests hold %d docs, %d elements, %d matches", docs, elems[1], n1))
	if runtime.NumCPU() >= 2 {
		verdict(ratio <= 1.15,
			fmt.Sprintf("parallel scatter-gather drain stays within 1.15x of a single shard (%.2fx)", ratio))
		verdict(rate4 >= 2*rate1,
			fmt.Sprintf("4-shard concurrent-writer throughput ≥2x one store (%.0f vs %.0f commits/s, %.1fx)", rate4, rate1, rate4/rate1))
		verdict(times[4].Seconds() <= times[1].Seconds()/1.5,
			fmt.Sprintf("4-way parallel recovery ≥1.5x faster (%v vs %v, %.2fx)", times[4].Round(time.Millisecond), times[1].Round(time.Millisecond), times[1].Seconds()/times[4].Seconds()))
	} else {
		fmt.Println("(1 CPU: drain-tax bound, commit-throughput and parallel-recovery speedups not asserted — shard goroutines need cores; measured ratios printed above)")
	}
}
