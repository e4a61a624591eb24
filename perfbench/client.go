package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// httpClient keeps one idle connection per closed-loop client, so every
// timed request reuses a warm loopback connection.
var httpClient = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	},
}

// elemJSON is the part of a rendered element the checks read.
type elemJSON struct {
	Attrs map[string]string `json:"attrs"`
	Text  string            `json:"text"`
}

type resultJSON struct {
	Count   int        `json:"count"`
	Results []elemJSON `json:"results"`
}

// call sends one request and returns the body and the client-side time
// from send until the whole body has been read.
func call(method, u, body string) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, d, fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, d, nil
}

func queryURL(base, q string, waitSeq uint64) string {
	u := base + "/v1/query?q=" + url.QueryEscape(q)
	if waitSeq > 0 {
		u += "&wait_seq=" + strconv.FormatUint(waitSeq, 10)
	}
	return u
}

// httpQuery runs a path query and returns the raw reply.
func httpQuery(base, q string, waitSeq uint64) ([]byte, time.Duration, error) {
	return call(http.MethodGet, queryURL(base, q, waitSeq), "")
}

// decodeResults decodes a reply in full, every element with its attrs
// and text.
func decodeResults(b []byte) (*resultJSON, error) {
	var r resultJSON
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Count != len(r.Results) {
		return nil, fmt.Errorf("count %d but %d results", r.Count, len(r.Results))
	}
	return &r, nil
}

// check verifies a query reply and returns its result count.
type check func(body []byte) (int, error)

// countIs checks only the size of the result set: the count field and
// the number of rendered elements, found by their opening bytes (a quote
// inside a JSON string is escaped, so the pattern cannot occur in
// content). Skipping a full decode of thousands of elements keeps the
// client from taking CPU that ltreed would otherwise get.
func countIs(want int) check {
	return func(b []byte) (int, error) {
		m := countField.FindSubmatch(b[:min(len(b), 128)])
		if m == nil {
			return 0, fmt.Errorf("no count field in %.80q", b)
		}
		count, _ := strconv.Atoi(string(m[1]))
		elems := bytes.Count(b, elemStart)
		if count != elems || count != want {
			return 0, fmt.Errorf("want %d results, got count %d with %d elements", want, count, elems)
		}
		return count, nil
	}
}

var (
	countField = regexp.MustCompile(`"count":(\d+)`)
	elemStart  = []byte(`{"tag":`)
)

// oneWith checks the result set is exactly one element with the given
// text.
func oneWith(text string) check {
	return func(b []byte) (int, error) {
		r, err := decodeResults(b)
		if err != nil {
			return 0, err
		}
		if r.Count != 1 {
			return 0, fmt.Errorf("want 1 result, got %d", r.Count)
		}
		if r.Results[0].Text != text {
			return 0, fmt.Errorf("want text %q, got %q", text, r.Results[0].Text)
		}
		return 1, nil
	}
}

// insert posts a fragment and returns the commit's WAL seq.
func insert(base string, o op) (uint64, time.Duration, error) {
	u := fmt.Sprintf("%s/v1/insert?parent=%s&idx=%d", base, url.QueryEscape(o.parent), o.idx)
	b, d, err := call(http.MethodPost, u, o.frag)
	if err != nil {
		return 0, d, err
	}
	var r struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, d, fmt.Errorf("decode insert reply: %w", err)
	}
	if r.Seq == 0 {
		return 0, d, fmt.Errorf("insert reply without seq: %s", b)
	}
	return r.Seq, d, nil
}

func putDoc(base, id, xml string) (time.Duration, error) {
	_, d, err := call(http.MethodPut, base+"/v1/doc?id="+url.QueryEscape(id), xml)
	return d, err
}

// stats fetches /v1/stats.
func stats(base string) (map[string]any, error) {
	b, _, err := call(http.MethodGet, base+"/v1/stats", "")
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(b, &m)
}

func rootHash(base string) (string, error) {
	m, err := stats(base)
	if err != nil {
		return "", err
	}
	h, _ := m["root_hash"].(string)
	if h == "" {
		return "", fmt.Errorf("%s/v1/stats has no root_hash", base)
	}
	return h, nil
}

// shardRoots returns a forest node's per-shard root hashes.
func shardRoots(base string) ([]string, error) {
	m, err := stats(base)
	if err != nil {
		return nil, err
	}
	shards, _ := m["shard"].([]any)
	var out []string
	for _, s := range shards {
		sm, _ := s.(map[string]any)
		h, _ := sm["root_hash"].(string)
		out = append(out, h)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s/v1/stats has no shard roots", base)
	}
	return out, nil
}
