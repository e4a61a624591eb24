package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/stats"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/workload"
)

// expReplica measures what log shipping buys a read replica over the
// snapshot-restore alternative: a follower applies each committed
// batch's logical ops through the deterministic relabeling paths, so per
// commit it ships O(batch) bytes and applies in O(batch), while a
// snapshot replica ships and restores O(document) per refresh. Two phases over the same
// xmark-lite insertion stream:
//
//	paced   one commit at a time; freshness = time from the commit
//	        being durable on the leader to the follower acknowledging
//	        it (reads observe it). Baseline per refresh: a full
//	        snapshot checkpointed into a second, idle WAL, then read
//	        back and restored — its "freshness" is the restore cost alone,
//	        ignoring shipping, so the comparison favors the baseline.
//	burst   every commit back-to-back while the follower applies
//	        concurrently; reports the apply-lag profile (max observed
//	        lag in batches) and the drain throughput after the last
//	        commit.
//
// The verdicts pin the replication-correctness claim (follower ==
// leader, bit-identical, after acknowledgment) and the two structural
// wins: fresher-than-restore and O(batch) bytes shipped.
func expReplica(c config) {
	scale, commits, burst := 120, 200, 300
	if c.quick {
		scale, commits, burst = 15, 40, 80
	}
	if c.n > 0 {
		scale = c.n
	}
	x := workload.XMarkLite(scale, 11)
	src := x.String()
	fmt.Printf("xmark-lite scale %d: %d tokens, %d bytes serialized; %d paced + %d burst commits\n\n",
		scale, x.CountTokens(), len(src), commits, burst)

	dir, err := os.MkdirTemp("", "ltreebench-replica-*")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	leader, err := ltree.OpenString(src, ltree.DefaultParams)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	w, err := storage.OpenWAL(dir+"/wal", storage.WALOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer w.Close()
	if err := leader.WithWAL(w); err != nil {
		fmt.Println("error:", err)
		return
	}
	f, err := ltree.OpenFollower(w)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer f.Close()

	// Snapshot-restore baseline replica: one full snapshot per refresh,
	// each checkpoint replacing the last.
	snaps, err := ltree.NewWALBackend(dir+"/snap", ltree.WALOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer snaps.Close()

	rng := rand.New(rand.NewSource(7))
	parent := leader.Elements("asia")[0]
	commit := func() error {
		return leader.Update(func(tx *ltree.Batch) error {
			_, err := tx.InsertXML(parent, rng.Intn(parent.NumChildren()+1),
				`<item><name>fresh</name></item>`)
			return err
		})
	}

	// ---- paced phase: per-commit freshness ----
	shipped0, _ := w.LiveLog()
	fresh := make([]time.Duration, 0, commits)
	saveCost := make([]time.Duration, 0, commits)
	restoreCost := make([]time.Duration, 0, commits)
	var snapBytes int64
	for i := 0; i < commits; i++ {
		if err := commit(); err != nil {
			fmt.Println("error:", err)
			return
		}
		t0 := time.Now()
		if err := f.WaitFor(w.Seq(), 30*time.Second); err != nil {
			fmt.Println("error:", err)
			return
		}
		fresh = append(fresh, time.Since(t0))

		t1 := time.Now()
		var buf bytes.Buffer
		if err := leader.Snapshot(&buf); err != nil {
			fmt.Println("error:", err)
			return
		}
		v, err := snaps.Checkpoint(buf.Bytes())
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		saveCost = append(saveCost, time.Since(t1))
		t2 := time.Now()
		blob, err := snaps.Get(v)
		if err == nil {
			_, err = ltree.Restore(bytes.NewReader(blob))
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		restoreCost = append(restoreCost, time.Since(t2))
		snapBytes = int64(len(blob))
	}
	shipped1, records1 := w.LiveLog()
	shippedPerCommit := float64(shipped1-shipped0) / float64(records1)

	tbl := stats.NewTable(os.Stdout, "replication path", "freshness µs (mean)", "p95 µs", "bytes/commit")
	tbl.Row("log-ship apply (follower)", us(mean(fresh)), us(p95(fresh)), shippedPerCommit)
	tbl.Row("snapshot restore (baseline)", us(mean(restoreCost)), us(p95(restoreCost)), float64(snapBytes))
	tbl.Flush()
	fmt.Printf("(baseline additionally costs the leader %v per refresh to write the snapshot;\n"+
		" the follower costs the leader nothing beyond the WAL append it already pays)\n\n", mean(saveCost).Round(time.Microsecond))

	// ---- burst phase: apply lag under sustained commits ----
	maxLag := uint64(0)
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		if err := commit(); err != nil {
			fmt.Println("error:", err)
			return
		}
		if lag := f.Stats().Lag; lag > maxLag {
			maxLag = lag
		}
	}
	commitDone := time.Since(t0)
	tDrain := time.Now()
	if err := f.WaitFor(w.Seq(), 60*time.Second); err != nil {
		fmt.Println("error:", err)
		return
	}
	drain := time.Since(tDrain)
	st := f.Stats()
	fmt.Printf("burst: %d commits in %v (leader), max observed lag %d batches,\n"+
		"       drain after last commit %v, follower applied %d batches total\n\n",
		burst, commitDone.Round(time.Millisecond), maxLag, drain.Round(time.Microsecond), st.Batches)

	// ---- correctness + verdicts ----
	var live, replica bytes.Buffer
	if err := leader.Snapshot(&live); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := f.Snapshot(&replica); err != nil {
		fmt.Println("error:", err)
		return
	}
	identical := bytes.Equal(live.Bytes(), replica.Bytes()) && f.Check() == nil

	verdict(identical, "acknowledged follower is bit-identical to the leader (snapshot + invariants)")
	ratio := float64(mean(restoreCost)) / float64(mean(fresh))
	verdict(mean(fresh) < mean(restoreCost),
		fmt.Sprintf("follower freshness beats snapshot-restore refresh (%.1f× fresher)", ratio))
	verdict(shippedPerCommit < float64(snapBytes)/4,
		fmt.Sprintf("shipped bytes are O(batch), not O(document): %.0f B/commit vs %d B/snapshot (%.0f×)",
			shippedPerCommit, snapBytes, float64(snapBytes)/shippedPerCommit))
	verdict(st.Lag == 0 && st.Err == nil, "follower fully caught up with no replication error")
	fmt.Println("(the gap widens with document size: the snapshot baseline re-ships the whole")
	fmt.Println(" image per refresh, the follower ships one op record per commit.)")
}

// mean returns the arithmetic mean of a duration sample.
func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

// p95 returns the 95th-percentile of a duration sample.
func p95(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*95/100]
}

// us renders a duration as float microseconds for table cells.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
