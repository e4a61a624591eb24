package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare reads two result directories (A is the baseline) and prints,
// per workload and end-to-end metric, each side's quartiles and a
// verdict under BENCHMARK.json's bounds. Metrics BENCHMARK.json does not
// list borrow the bound of their nearest listed metric: per-class
// latencies that of p50_ms or p99_ms, recovery_s that of setup_s. Counts
// are shown without a verdict.
func compare(root string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <results-dir-A> <results-dir-B>")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	specs := map[string]metricSpec{}
	for _, s := range spec.EndToEnd {
		specs[s.Name] = s
	}
	judge := func(name string) (metricSpec, bool) {
		if s, ok := specs[name]; ok {
			return s, true
		}
		like := ""
		switch {
		case name == "recovery_s":
			like = "setup_s"
		case strings.HasSuffix(name, "_p50_ms"):
			like = "p50_ms"
		case strings.HasSuffix(name, "_p99_ms"):
			like = "p99_ms"
		}
		s, ok := specs[like]
		s.Name = name
		return s, ok
	}
	regressions := 0
	var wls []string
	for wl := range a {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		ra, rb := a[wl], b[wl]
		fmt.Printf("== %s: %d runs in A, %d in B\n", wl, len(ra), len(rb))
		fmt.Printf("%-24s %10s %10s %10s | %10s %10s %10s | %6s %6s %s\n", "metric", "A q1", "A med", "A q3", "B q1", "B med", "B q3", "sprA", "bound", "verdict")
		for _, name := range metricNames(ra) {
			va, vb := values(ra, name), values(rb, name)
			if len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spread := 0.0
			if am != 0 {
				spread = (a3 - a1) / am
			}
			s, ok := judge(name)
			verdict := "info"
			if ok {
				verdict = verdictOf(s, va, vb, am, bm, spread)
				if verdict == "REGRESSED" {
					regressions++
				}
			}
			fmt.Printf("%-24s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | %6.3f %6.3f %s\n", name, a1, am, a3, b1, bm, b3, spread, s.Bound, verdict)
		}
	}
	fmt.Printf("regressions: %d\n", regressions)
	return nil
}

// verdictOf applies the bound: B's median may be worse than A's by at
// most bound×A's median. Where A's own spread exceeds the bound the
// comparison is unresolved, unless every B run beats every A run.
func verdictOf(s metricSpec, va, vb []float64, am, bm, spread float64) string {
	worse := bm > am*(1+s.Bound)
	better := func(x, y float64) bool { return x < y }
	if s.Better == "higher" {
		worse = bm < am*(1-s.Bound)
		better = func(x, y float64) bool { return x > y }
	}
	if spread > s.Bound {
		all := true
		for _, x := range vb {
			for _, y := range va {
				all = all && better(x, y)
			}
		}
		if all {
			return "better (all runs)"
		}
		return "unresolved (spread > bound)"
	}
	if worse {
		return "REGRESSED"
	}
	return "ok"
}

func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" || r.Trace {
			continue // span files and traced runs carry no end-to-end set
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced results in %s", dir)
	}
	return out, nil
}

func metricNames(rs []*result) []string {
	seen := map[string]bool{}
	for _, r := range rs {
		for k := range r.Metrics {
			seen[k] = true
		}
	}
	var names []string
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func values(rs []*result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.Metrics[name]; ok {
			v = append(v, x)
		}
	}
	return v
}
