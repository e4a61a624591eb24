// Command perfbench is the repository's benchmark: it builds nothing
// itself (run.sh builds it and cmd/ltreed from the checkout), starts real
// ltreed processes on 127.0.0.1, drives them from closed-loop clients,
// checks every response, and prints every metric by name with its unit.
// The last line of standard output is one JSON object with the metrics
// BENCHMARK.json lists: its end_to_end metrics with --trace 0, its
// per_layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload edit --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
//
// Each run also stores its result, with a provenance header, under
// .bench_build/results; compare reads two such directories.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	return &s, json.Unmarshal(b, &s)
}

// result is what one run stores and compare reads back.
type result struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Reps holds every set-up and recovery timing behind the medians.
	Reps map[string][]float64 `json:"reps"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "edit, read or forest")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds (edit: a fixed 120 inserts per second given)")
		trace   = flag.Int("trace", 0, "1: also run the traced replays and report per-layer metrics")
		root    = flag.String("root", "..", "checkout root (holds BENCHMARK.json and cmd/ltreed)")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compare(*root, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*root, *wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, wl string, seed int64, seconds int, traced bool) error {
	switch wl {
	case "edit", "read", "forest":
	default:
		return fmt.Errorf("unknown workload %q (want edit, read or forest)", wl)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	results := filepath.Join(build, "results")
	for _, d := range []string{filepath.Join(build, "run"), results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(filepath.Join(build, "run"), wl+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	env := runEnv{bin: filepath.Join(build, "ltreed"), dir: dir, seed: seed, seconds: seconds}

	prov := newProvenance(root, wl, seed)
	hdr, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s\n", hdr)

	res := &result{Provenance: prov, Workload: wl, Seed: seed, Trace: traced}
	var r *e2e
	lm := map[string]float64{}
	tr := newTracer(allSpans)
	switch wl {
	case "edit":
		seedXML := xmlString(workload.XMarkLite(editScale, seed))
		if r, err = runEdit(env, seedXML); err != nil {
			return err
		}
		if traced {
			err = traceEdit(env, seedXML, r, tr, lm)
		} else {
			err = editReference(seedXML, r)
		}
	case "read":
		d := workload.XMarkLite(readScale, seed)
		seedXML := xmlString(d)
		names := readNames(d)
		wantPath, wantScan := expectCounts(d)
		var st *ltree.Store
		if st, err = ltree.OpenString(seedXML, ltree.DefaultParams); err != nil {
			return err
		}
		if r, err = runRead(env, seedXML, names, wantPath, wantScan, hexRoot(st.RootHash())); err != nil {
			return err
		}
		if traced {
			err = traceRead(env, seedXML, names, wantPath, wantScan, r, tr, lm)
		}
	case "forest":
		fs := newForestSet(seed)
		if r, err = runForest(env, fs); err != nil {
			return err
		}
		if traced {
			err = traceForest(env, r, tr, lm)
		} else {
			err = forestCheck(env, r)
		}
	}
	r.s.attempted++
	if err != nil {
		r.s.fail(err)
	}

	m, notes := r.metrics()
	if r.s.results > 0 {
		lm["ltreed.resp_bytes_per_result"] = float64(r.s.respBytes) / float64(r.s.results)
	}
	res.Attempted, res.Failed, res.Errors = r.s.attempted, r.s.failed, r.s.errs
	res.Correct = r.s.failed == 0
	res.Metrics = m
	res.Reps = map[string][]float64{"setup_s": inSeconds(r.setup), "recovery_s": inSeconds(r.recovery)}

	printMetrics("end-to-end", m, spec.EndToEnd)
	for _, n := range notes {
		fmt.Println("# note:", n)
	}
	for _, e := range res.Errors {
		fmt.Println("# failure:", e)
	}
	out := map[string]any{}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
		for _, s := range spec.PerLayer {
			m[s.Name] = lm[s.Name] // a layer the workload does not reach reads 0
		}
		printMetrics("per-layer (traced replay)", lm, spec.PerLayer)
		for _, l := range tr.selfTable() {
			fmt.Printf("# self %-28s %8d spans %12.3f ms\n", l.Name, l.Spans, l.SelfMS)
		}
		if err := tr.write(filepath.Join(results, fmt.Sprintf("%s-seed%d-spans.json", wl, seed)), prov); err != nil {
			return err
		}
	}
	for _, s := range list {
		v, ok := m[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = map[string]any{"value": v, "unit": s.Unit}
	}
	if err := saveResult(results, res); err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": out})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func inSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// unitOf gives a metric's unit: from BENCHMARK.json when listed there,
// else from its name (the per-class latencies and sample counts).
func unitOf(name string, specs []metricSpec) string {
	for _, s := range specs {
		if s.Name == name {
			return s.Unit
		}
	}
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	if name == "failed_frac" {
		return "ratio"
	}
	return "count"
}

func printMetrics(title string, m map[string]float64, specs []metricSpec) {
	fmt.Printf("# %s metrics\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.4f %s\n", k, m[k], unitOf(k, specs))
	}
}

func saveResult(dir string, res *result) error {
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%v-seed%d-%d.json", res.Workload, res.Trace, res.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// editReference replays the edit stream on an in-memory Store and
// checks ltreed reached the same root.
func editReference(seedXML string, r *e2e) error {
	st, err := ltree.OpenString(seedXML, ltree.DefaultParams)
	if err != nil {
		return err
	}
	for _, o := range r.edits {
		parent, err := single(st.Query(o.parent))
		if err != nil {
			return err
		}
		frag, err := xmldom.ParseString(o.frag)
		if err != nil {
			return err
		}
		if err := st.InsertSubtree(parent, o.idx, frag.Root); err != nil {
			return err
		}
	}
	if got := hexRoot(st.RootHash()); got != r.roots[0] {
		return fmt.Errorf("ltreed root %s, in-process replay root %s", r.roots[0], got)
	}
	return nil
}

func forestCheck(env runEnv, r *e2e) error {
	want, err := forestReference(env, r)
	if err != nil {
		return err
	}
	for i := range want {
		if want[i] != r.roots[i] {
			return fmt.Errorf("shard %d: ltreed root %s, in-process replay root %s", i, r.roots[i], want[i])
		}
	}
	return nil
}
