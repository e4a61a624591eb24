package main

// Concurrent append inserts: POST /v1/insert with no idx appends, and
// the append position must be resolved inside the write. Run under
// -race (CI's flake gate does, with -count=2): a child count read
// outside the store lock races the concurrent InsertChildAt.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	ltree "github.com/ltree-db/ltree"
)

const (
	appendWriters = 4
	appendEach    = 50
)

func TestInsertAppendRace(t *testing.T) {
	t.Run("leader", func(t *testing.T) {
		st, srv := newLeaderServer(t, time.Second)
		before := st.Elements("shop")[0].NumChildren()
		hammerAppends(t, srv)
		checkAppends(t, st.Elements("shop")[0], before)
		if err := st.Check(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("forest", func(t *testing.T) {
		f, err := ltree.OpenForest(t.TempDir(), ltree.ForestOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Put("d", `<shop/>`); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newHandler(&forestNode{Forest: f}, time.Second))
		defer srv.Close()
		hammerAppends(t, srv)
		root, ok := f.Get("d")
		if !ok {
			t.Fatal("document d vanished")
		}
		checkAppends(t, root, 0)
		if err := f.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// hammerAppends has appendWriters goroutines each POST appendEach
// appends of <item w="writer" n="i"/> under /shop.
func hammerAppends(t *testing.T, srv *httptest.Server) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, appendWriters)
	for w := 0; w < appendWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < appendEach; i++ {
				resp, err := srv.Client().Post(srv.URL+"/v1/insert?parent=/shop", "application/xml",
					strings.NewReader(fmt.Sprintf(`<item w="%d" n="%d"/>`, w, i)))
				if err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d insert %d: status %d: %s", w, i, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// checkAppends asserts every append landed after the parent's first
// `before` children, and each writer's appends in its submission order.
func checkAppends(t *testing.T, shop *ltree.Elem, before int) {
	t.Helper()
	kids := shop.Children()
	if got, want := len(kids)-before, appendWriters*appendEach; got != want {
		t.Fatalf("%d appended children, want %d", got, want)
	}
	next := make([]int, appendWriters)
	for _, k := range kids[before:] {
		ws, _ := k.Attr("w")
		ns, _ := k.Attr("n")
		w, err1 := strconv.Atoi(ws)
		n, err2 := strconv.Atoi(ns)
		if err1 != nil || err2 != nil || w < 0 || w >= appendWriters {
			t.Fatalf("unexpected child <%s w=%q n=%q>", k.Tag(), ws, ns)
		}
		if n != next[w] {
			t.Fatalf("writer %d: append %d landed where %d was due", w, n, next[w])
		}
		next[w]++
	}
}
