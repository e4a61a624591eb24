package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Set-up and recovery are each repeated and reported as a median, so one
// slow process start does not move the figure. Recovery restarts at least
// minRecoveries times, and more (up to maxRecoveries) while they add up to
// less than recoveryBudget: quick restarts are the noisiest.
const (
	setupReps      = 5
	minRecoveries  = 3
	maxRecoveries  = 7
	recoveryBudget = 3 * time.Second
)

// samples collects one closed-loop client's timings and outcomes.
type samples struct {
	class     map[string][]time.Duration // write, ryw, query_point, query_path, query_scan
	attempted int
	failed    int
	errs      []string
	respBytes int64
	results   int64
}

func newSamples() *samples { return &samples{class: map[string][]time.Duration{}} }

func (s *samples) fail(err error) {
	s.failed++
	if len(s.errs) < 10 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *samples) merge(o *samples) {
	for k, v := range o.class {
		s.class[k] = append(s.class[k], v...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.respBytes += o.respBytes
	s.results += o.results
}

// timedQuery sends one query, checks it with check, and records it under
// class when both succeed.
func (s *samples) timedQuery(class, base, q string, waitSeq uint64, ok check) {
	s.attempted++
	b, d, err := httpQuery(base, q, waitSeq)
	n := 0
	if err == nil {
		n, err = ok(b)
	}
	if err != nil {
		s.fail(fmt.Errorf("%s %q: %w", class, q, err))
		return
	}
	s.class[class] = append(s.class[class], d)
	s.respBytes += int64(len(b))
	s.results += int64(n)
}

// e2e is one workload's client-observed run.
type e2e struct {
	s        *samples
	wall     time.Duration
	setup    []time.Duration
	recovery []time.Duration
	rssMB    float64

	// inputs the replays repeat
	edits    []op   // edit: the insert stream, in send order
	executed [2]int // read: ops each client completed; forest: ops sent
	forest   *forestSet

	roots []string // leader (or per-shard forest) root hashes at the end
}

// runEnv is what every workload run needs: the ltreed binary, a scratch
// directory inside the checkout, the seed and the time budget.
type runEnv struct {
	bin, dir string
	seed     int64
	seconds  int
}

// repeatSetup starts a fresh cluster setupReps times, timing each start
// from the first process launch until every node is healthy (and, for
// forest, preloaded). The last cluster stays up for the measured run.
func (env runEnv) repeatSetup(start func(c *cluster, dir string) error) (*cluster, []time.Duration, error) {
	var times []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(env.dir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		c := &cluster{bin: env.bin, dir: dir}
		t0 := time.Now()
		if err := start(c, dir); err != nil {
			c.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if rep == setupReps-1 {
			return c, times, nil
		}
		c.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// restart kills the node with SIGKILL and restarts it with the same
// arguments, timing each restart until it is healthy; check runs against
// every restarted node.
func (r *e2e) restart(c *cluster, p *proc, check func(*proc) error) (*proc, error) {
	for rep := 0; rep < minRecoveries || (rep < maxRecoveries && sum(r.recovery) < recoveryBudget); rep++ {
		p.kill()
		t0 := time.Now()
		np, err := c.start(p.name, p.role...)
		if err != nil {
			return nil, err
		}
		r.recovery = append(r.recovery, time.Since(t0))
		r.s.attempted++
		if err := check(np); err != nil {
			r.s.fail(fmt.Errorf("recovery %d of %s: %w", rep, p.name, err))
		}
		p = np
	}
	return p, nil
}

func writeSeed(dir, name, xml string) (string, error) {
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, []byte(xml), 0o644)
}

func sameRoot(want string) func(*proc) error {
	return func(p *proc) error {
		got, err := rootHash(p.base)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("root %s after restart, %s before", got, want)
		}
		return nil
	}
}

// runEdit: leader with WAL (fsync per commit) plus one follower; one
// client inserts under rooted parents and reads its write back from the
// follower with wait_seq.
func runEdit(env runEnv, seedXML string) (*e2e, error) {
	r := &e2e{s: newSamples(), edits: editStream(env.seed, editsPerSecond*env.seconds)}
	seedPath, err := writeSeed(env.dir, "edit-seed.xml", seedXML)
	if err != nil {
		return nil, err
	}
	var leader, follower *proc
	c, setup, err := env.repeatSetup(func(c *cluster, dir string) error {
		var err error
		if leader, err = c.start("leader", "-wal", filepath.Join(dir, "wal"), "-seed", seedPath); err != nil {
			return err
		}
		follower, err = c.start("follower", "-leader", leader.ship)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	r.setup = setup

	s := r.s
	persons := 5 * editScale
	var acked []string
	var lastSeq uint64
	t0 := time.Now()
	for i, o := range r.edits {
		s.attempted++
		seq, d, err := insert(leader.base, o)
		if err != nil {
			s.fail(fmt.Errorf("insert %s: %w", o.id, err))
			continue
		}
		s.class["write"] = append(s.class["write"], d)
		acked = append(acked, o.id)
		lastSeq = seq
		if o.tag == "person" {
			persons++
		}
		s.timedQuery("ryw", follower.base, rywQuery(o), seq, oneWith(o.want))
		if i%10 == 9 {
			s.timedQuery("query_path", leader.base, pathQuery, 0, countIs(persons))
		}
	}
	r.wall = time.Since(t0)

	// The follower has applied lastSeq once a wait_seq read returns.
	s.attempted++
	lroot, err1 := rootHash(leader.base)
	_, _, err2 := httpQuery(follower.base, pathQuery, lastSeq)
	froot, err3 := rootHash(follower.base)
	switch {
	case err1 != nil || err2 != nil || err3 != nil:
		s.fail(fmt.Errorf("end-of-run root check: %v %v %v", err1, err2, err3))
	case lroot != froot:
		s.fail(fmt.Errorf("leader root %s != follower root %s", lroot, froot))
	}
	r.roots = []string{lroot}
	if r.rssMB, err = leader.peakRSSMB(); err != nil {
		return nil, err
	}

	follower.kill()
	leader, err = r.restart(c, leader, sameRoot(lroot))
	if err != nil {
		return nil, err
	}
	// kill -9 leaves the page cache intact, so this checks that every
	// acked insert was in the log before its ack, not that fsync reached
	// the disk.
	s.attempted++
	if err := checkAcked(leader.base, acked); err != nil {
		s.fail(fmt.Errorf("recovery lost acked inserts: %w", err))
	}
	return r, nil
}

// checkAcked verifies the node holds every acked insert exactly once and
// no other inserted id.
func checkAcked(base string, acked []string) error {
	seen := map[string]int{}
	for _, tag := range []string{"item", "person", "open_auction"} {
		b, _, err := httpQuery(base, "//"+tag, 0)
		if err != nil {
			return err
		}
		res, err := decodeResults(b)
		if err != nil {
			return err
		}
		for _, e := range res.Results {
			if id := e.Attrs["id"]; strings.HasPrefix(id, "new") {
				seen[id]++
			}
		}
	}
	for _, id := range acked {
		if seen[id] != 1 {
			return fmt.Errorf("acked id %s found %d times", id, seen[id])
		}
	}
	if len(seen) != len(acked) {
		return fmt.Errorf("%d inserted ids present, %d acked", len(seen), len(acked))
	}
	return nil
}

// runRead: leader and follower over the large seed, no writes, one
// closed-loop client per node.
func runRead(env runEnv, seedXML string, names []string, wantPath, wantScan int, seedRoot string) (*e2e, error) {
	r := &e2e{s: newSamples()}
	seedPath, err := writeSeed(env.dir, "read-seed.xml", seedXML)
	if err != nil {
		return nil, err
	}
	var leader, follower *proc
	c, setup, err := env.repeatSetup(func(c *cluster, dir string) error {
		var err error
		if leader, err = c.start("leader", "-wal", filepath.Join(dir, "wal"), "-seed", seedPath); err != nil {
			return err
		}
		follower, err = c.start("follower", "-leader", leader.ship)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	r.setup = setup

	nodes := []*proc{leader, follower}
	per := make([]*samples, len(nodes))
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(env.seconds) * time.Second)
	t0 := time.Now()
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := newSamples()
			st := &readStream{rng: rand.New(rand.NewSource(env.seed*7 + int64(i))), items: len(names), names: names}
			for time.Now().Before(deadline) {
				o := st.next()
				switch o.kind {
				case "point":
					s.timedQuery("query_point", nodes[i].base, o.query, 0, oneWith(o.want))
				case "path":
					s.timedQuery("query_path", nodes[i].base, o.query, 0, countIs(wantPath))
				case "scan":
					s.timedQuery("query_scan", nodes[i].base, o.query, 0, countIs(wantScan))
				}
				r.executed[i]++
			}
			per[i] = s
		}(i)
	}
	wg.Wait()
	r.wall = time.Since(t0)
	for _, s := range per {
		r.s.merge(s)
	}

	r.s.attempted++
	lroot, err1 := rootHash(leader.base)
	froot, err2 := rootHash(follower.base)
	switch {
	case err1 != nil || err2 != nil:
		r.s.fail(fmt.Errorf("end-of-run root check: %v %v", err1, err2))
	case lroot != seedRoot || froot != seedRoot:
		r.s.fail(fmt.Errorf("roots leader %s follower %s, in-process seed %s", lroot, froot, seedRoot))
	}
	r.roots = []string{lroot}
	if r.rssMB, err = leader.peakRSSMB(); err != nil {
		return nil, err
	}
	follower.kill()
	if _, err := r.restart(c, leader, sameRoot(seedRoot)); err != nil {
		return nil, err
	}
	return r, nil
}

// runForest: one forest node with 4 shards preloaded with 64 documents;
// one client replaces documents and queries across them.
func runForest(env runEnv, fs *forestSet) (*e2e, error) {
	r := &e2e{s: newSamples(), forest: fs}
	var node *proc
	c, setup, err := env.repeatSetup(func(c *cluster, dir string) error {
		var err error
		if node, err = c.start("forest", "-forest", filepath.Join(dir, "forest"), "-shards", fmt.Sprint(forestShard)); err != nil {
			return err
		}
		for k := 0; k < forestDocs; k++ {
			if _, err := putDoc(node.base, forestID(k), fs.xml[k][0]); err != nil {
				return fmt.Errorf("preload %s: %w", forestID(k), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	r.setup = setup

	s := r.s
	st := &forestStream{rng: rand.New(rand.NewSource(env.seed)), fs: fs}
	wantScan := forestDocs * fs.scan
	t0 := time.Now()
	for range forestOpsPerSecond * env.seconds {
		o := st.next()
		r.executed[0]++
		switch o.kind {
		case "put":
			s.attempted++
			d, err := putDoc(node.base, forestID(o.doc), fs.xml[o.doc][o.version])
			if err != nil {
				s.fail(fmt.Errorf("put %s: %w", forestID(o.doc), err))
				continue
			}
			s.class["write"] = append(s.class["write"], d)
		case "point":
			s.timedQuery("query_point", node.base, o.query, 0, oneWith(o.want))
		case "scan":
			s.timedQuery("query_scan", node.base, o.query, 0, countIs(wantScan))
		}
	}
	r.wall = time.Since(t0)

	roots, err := shardRoots(node.base)
	if err != nil {
		return nil, err
	}
	r.roots = roots
	if r.rssMB, err = node.peakRSSMB(); err != nil {
		return nil, err
	}
	want := strings.Join(roots, ",")
	_, err = r.restart(c, node, func(p *proc) error {
		got, err := shardRoots(p.base)
		if err != nil {
			return err
		}
		if g := strings.Join(got, ","); g != want {
			return fmt.Errorf("shard roots %s after restart, %s before", g, want)
		}
		return nil
	})
	return r, err
}

// metrics turns the run into the end-to-end metric set. Percentiles
// beyond p50 are reported only where the class has at least 1000 samples
// (ten beyond the p99 cut); the all-request p99 is always reported.
func (r *e2e) metrics() (map[string]float64, []string) {
	var notes []string
	m := map[string]float64{}
	var all []time.Duration
	classes := make([]string, 0, len(r.s.class))
	for k := range r.s.class {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		v := r.s.class[k]
		all = append(all, v...)
		m[k+"_p50_ms"] = ms(median(v))
		if len(v) >= 1000 {
			m[k+"_p99_ms"] = ms(pct(v, 0.99))
		} else {
			notes = append(notes, fmt.Sprintf("%s_p99_ms not reported: %d samples < 1000", k, len(v)))
		}
		m[k+"_samples"] = float64(len(v))
	}
	if len(all) < 1000 {
		notes = append(notes, fmt.Sprintf("p99_ms rests on %d samples (< 1000)", len(all)))
	}
	m["p50_ms"] = ms(median(all))
	m["p99_ms"] = ms(pct(all, 0.99))
	m["ops_s"] = float64(len(all)) / r.wall.Seconds()
	m["setup_s"] = median(r.setup).Seconds()
	m["recovery_s"] = median(r.recovery).Seconds()
	m["peak_rss_mb"] = r.rssMB
	m["failed_frac"] = float64(r.s.failed) / float64(max(r.s.attempted, 1))
	m["attempted"] = float64(r.s.attempted)
	m["failed"] = float64(r.s.failed)
	return m, notes
}
