package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance is printed on every run and stored with every result.
type provenance struct {
	GitSHA       string         `json:"git_sha"`
	SourceSHA256 string         `json:"source_sha256"`
	CPU          string         `json:"cpu"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   map[string]int `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Fsync        string         `json:"fsync"`
	Scales       map[string]int `json:"scales"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
}

func newProvenance(root, wl string, seed int64) provenance {
	n := runtime.NumCPU()
	return provenance{
		GitSHA:       gitSHA(root),
		SourceSHA256: sourceDigest(root),
		CPU:          cpuModel(),
		NProc:        n,
		// ltreed processes are started with GOMAXPROCS set to nproc.
		GOMAXPROCS: map[string]int{"perfbench": runtime.GOMAXPROCS(0), "ltreed": n},
		GoVersion:  runtime.Version(),
		Fsync:      "fsync on every commit: leader WAL and every forest shard WAL (SyncEvery 0)",
		Scales: map[string]int{
			"edit_xmark": editScale, "read_xmark": readScale,
			"forest_xmark": forestScale, "forest_docs": forestDocs, "forest_shards": forestShard,
		},
		Workload: wl,
		Seed:     seed,
	}
}

// gitSHA is the checkout's commit, or "none" where the checkout is not a
// git repository.
func gitSHA(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under the checkout, so
// runs from checkouts without git history still name the code they ran.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(p)
			if err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s %d\n", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
