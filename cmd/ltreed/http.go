// HTTP surface shared by leader and follower nodes.
//
// Endpoints:
//
//	GET    /healthz                           liveness probe
//	GET    /v1/stats                          role, seq, lag, txn pins,
//	                                          index version — aggregated
//	                                          per shard on a forest node
//	GET    /v1/query?q=EXPR[&wait_seq=N]      path query over the store
//	GET    /v1/elements?tag=T[&wait_seq=N]    all elements with tag T
//	GET    /v1/changes?since=N[&path=P]       long-poll change feed: the
//	                                          hash-pruned diff from index
//	                                          version N to the current one
//	                                          (or the next commit when
//	                                          already current; 204 after
//	                                          -wait with nothing new).
//	                                          path scopes to one subtree
//	                                          family. 501 on a forest —
//	                                          histories are per-shard.
//	POST   /v1/insert?parent=EXPR[&idx=I]     write; body is an XML
//	                                          fragment; returns the
//	                                          commit's WAL seq
//	PUT    /v1/doc?id=ID                      forest-only: upsert a whole
//	                                          document; body is its XML
//	DELETE /v1/doc?id=ID                      forest-only: drop a document
//
// wait_seq gives a follower read read-your-writes freshness: pass the
// seq a leader write returned and the handler blocks (bounded by -wait)
// until the replica has applied it, answering 504 on timeout so the
// client can retry or fall back to the leader.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

// node is what the HTTP layer needs from any role: the shared
// snapshot-isolated read surface (ltree.Reader — every role implements
// it, so the handlers never switch on the concrete node type), plus a
// freshness gate, the change feed, and write hooks (leaders and forests
// commit, followers refuse; whole-document routing exists only on
// forests).
type node interface {
	ltree.Reader
	WaitFor(seq uint64, timeout time.Duration) error
	Changes(since uint64, path string, wait time.Duration) (*ltree.ChangeSet, error)
	Insert(parentExpr string, idx int, fragment string) (uint64, error)
	PutDoc(id, src string) (uint64, error)
	DeleteDoc(id string) (uint64, error)
	Stats() map[string]any
}

// errReadOnly rejects writes on a follower.
var errReadOnly = errors.New("ltreed: node is a read-only follower; write to the leader")

// errNotForest rejects document routing on single-store roles.
var errNotForest = errors.New("ltreed: node is not a forest; start with -forest to route documents")

// errForestChanges rejects the unified change feed on a forest: each
// shard has its own version history, so feeds are per-shard.
var errForestChanges = errors.New("ltreed: a forest has per-shard version histories; subscribe to one shard's store")

// watchSource is the change-feed seam shared by Store and Follower.
type watchSource interface {
	Watch(ltree.WatchOptions) (*ltree.Watcher, error)
}

// changesSince answers one long-poll: the first feed event (which
// covers since → current when the store has already moved, or the next
// commit otherwise), or nil after the wait bound with nothing to
// report.
func changesSince(src watchSource, since uint64, path string, wait time.Duration) (*ltree.ChangeSet, error) {
	w, err := src.Watch(ltree.WatchOptions{Since: since, Path: path, Buffer: 1})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	select {
	case ev, ok := <-w.C:
		if !ok {
			return nil, w.Err()
		}
		return ev.Changes, nil
	case <-time.After(wait):
		return nil, nil
	}
}

// leaderNode adapts a WAL-attached Store. The embedded Store provides
// the whole Reader surface; only the role-specific seams are written
// out.
type leaderNode struct {
	*ltree.Store
	src storage.TailSource
}

// WaitFor on the leader is trivially satisfied: the store IS the
// durable state the seq refers to.
func (l *leaderNode) WaitFor(uint64, time.Duration) error { return nil }

func (l *leaderNode) Changes(since uint64, path string, wait time.Duration) (*ltree.ChangeSet, error) {
	return changesSince(l.Store, since, path, wait)
}

// appendIdx resolves an insert position: a negative idx appends. Call
// it inside the write so the child count read is the one the insert
// lands against — read outside the store lock it races concurrent
// writers, and two appends can land out of order.
func appendIdx(parent *ltree.Elem, idx int) int {
	if idx < 0 {
		return parent.NumChildren()
	}
	return idx
}

func (l *leaderNode) Insert(parentExpr string, idx int, fragment string) (uint64, error) {
	parents, err := l.Query(parentExpr)
	if err != nil {
		return 0, err
	}
	if len(parents) != 1 {
		return 0, fmt.Errorf("ltreed: parent query %q matched %d elements, need exactly 1", parentExpr, len(parents))
	}
	frag, err := ltree.ParseXML(strings.NewReader(fragment))
	if err != nil {
		return 0, err
	}
	err = l.Update(func(b *ltree.Batch) error {
		return b.InsertSubtree(parents[0], appendIdx(parents[0], idx), frag.Root)
	})
	if err != nil {
		return 0, err
	}
	return l.src.Seq(), nil
}

func (l *leaderNode) PutDoc(string, string) (uint64, error) { return 0, errNotForest }
func (l *leaderNode) DeleteDoc(string) (uint64, error)      { return 0, errNotForest }

func (l *leaderNode) Stats() map[string]any {
	rs := l.ReaderStats()
	m := map[string]any{
		"role":          "leader",
		"seq":           l.src.Seq(),
		"rebases":       l.src.Rebases(),
		"index_version": rs.IndexVersion,
		"root_hash":     fmt.Sprintf("%x", l.RootHash()),
		"txn_open":      rs.TxnOpen,
		"txn_retired":   rs.TxnRetired,
	}
	// WAL retention state, and the blob tier's accounting when one is
	// attached — dashboards watch blob.upload_lag (sealed records not yet
	// object-store durable) and wal.local_segments (disk footprint).
	if ws, ok := l.WALStats(); ok {
		m["wal"] = walJSON(ws)
		if ws.Tier != nil {
			m["blob"] = blobJSON(ws.Tier)
		}
	}
	return m
}

// walJSON renders one backend's retention state; shared by the leader
// and the per-shard forest sections.
func walJSON(ws ltree.WALStats) map[string]any {
	return map[string]any{
		"checkpoint_seq":    ws.CheckpointSeq,
		"local_segments":    ws.LocalSegments,
		"oldest_local_base": ws.OldestLocalBase,
		"leases":            ws.Leases,
		"lease_floor":       ws.LeaseFloor,
	}
}

func blobJSON(t *ltree.BlobTierStats) map[string]any {
	return map[string]any{
		"durable_seq":          t.DurableSeq,
		"upload_lag":           t.UploadLag,
		"pending_segments":     t.PendingSegments,
		"uploaded_segments":    t.UploadedSegments,
		"uploaded_checkpoints": t.UploadedCheckpoints,
		"bytes_uploaded":       t.BytesUploaded,
		"upload_retries":       t.UploadRetries,
		"fetches":              t.Fetches,
		"fetch_bytes":          t.FetchBytes,
		"local_released":       t.LocalReleased,
		"manifest_writes":      t.ManifestWrites,
	}
}

// followerNode adapts a replicating Follower; the embedded Follower
// provides Reader and WaitFor.
type followerNode struct {
	*ltree.Follower
}

func (n *followerNode) Changes(since uint64, path string, wait time.Duration) (*ltree.ChangeSet, error) {
	return changesSince(n.Follower, since, path, wait)
}

func (n *followerNode) Insert(string, int, string) (uint64, error) { return 0, errReadOnly }
func (n *followerNode) PutDoc(string, string) (uint64, error)      { return 0, errReadOnly }
func (n *followerNode) DeleteDoc(string) (uint64, error)           { return 0, errReadOnly }

func (n *followerNode) Stats() map[string]any {
	s := n.Follower.Stats()
	rs := n.ReaderStats()
	m := map[string]any{
		"role":          "follower",
		"applied_seq":   s.AppliedSeq,
		"leader_seq":    s.LeaderSeq,
		"lag":           s.Lag,
		"batches":       s.Batches,
		"running":       s.Running,
		"index_version": rs.IndexVersion,
		"root_hash":     fmt.Sprintf("%x", n.RootHash()),
		"txn_open":      rs.TxnOpen,
		"txn_retired":   rs.TxnRetired,
	}
	if s.Err != nil {
		m["error"] = s.Err.Error()
	}
	return m
}

// forestNode adapts a sharded Forest: reads scatter-gather across every
// shard, writes route to the owning shard, and /v1/doc gains meaning.
// The embedded Forest provides Reader (composite versions, merged
// streams).
type forestNode struct {
	*ltree.Forest
}

// WaitFor on a forest leader is trivially satisfied, as on a store
// leader: the shards ARE the durable state any returned seq refers to.
func (n *forestNode) WaitFor(uint64, time.Duration) error { return nil }

func (n *forestNode) Changes(uint64, string, time.Duration) (*ltree.ChangeSet, error) {
	return nil, errForestChanges
}

// shardSeq is the WAL seq a write to docID just advanced — the
// per-shard freshness token handed back to clients.
func (n *forestNode) shardSeq(docID string) uint64 {
	return n.Forest.Stats().Shard[n.ShardFor(docID)].Seq
}

func (n *forestNode) Insert(parentExpr string, idx int, fragment string) (uint64, error) {
	parents, err := n.Query(parentExpr)
	if err != nil {
		return 0, err
	}
	if len(parents) != 1 {
		return 0, fmt.Errorf("ltreed: parent query %q matched %d elements, need exactly 1", parentExpr, len(parents))
	}
	id, ok := n.DocOf(parents[0])
	if !ok {
		return 0, fmt.Errorf("ltreed: parent of %q is not inside a forest document", parentExpr)
	}
	frag, err := ltree.ParseXML(strings.NewReader(fragment))
	if err != nil {
		return 0, err
	}
	err = n.Update(id, func(b *ltree.Batch, _ *ltree.Elem) error {
		return b.InsertSubtree(parents[0], appendIdx(parents[0], idx), frag.Root)
	})
	if err != nil {
		return 0, err
	}
	return n.shardSeq(id), nil
}

func (n *forestNode) PutDoc(id, src string) (uint64, error) {
	if _, err := n.Put(id, src); err != nil {
		return 0, err
	}
	return n.shardSeq(id), nil
}

func (n *forestNode) DeleteDoc(id string) (uint64, error) {
	// Capture the owning shard first: the registry forgets the id the
	// moment the delete commits.
	shard := n.ShardFor(id)
	if err := n.Forest.Delete(id); err != nil {
		return 0, err
	}
	return n.Forest.Stats().Shard[shard].Seq, nil
}

// Stats aggregates the per-shard counters instead of assuming one
// backend: forest-wide totals first, then the per-shard breakdown.
// Shards own real WAL backends, so each shard section carries the same
// wal/blob retention state a leader reports, and the forest totals sum
// the tier accounting across shards.
func (n *forestNode) Stats() map[string]any {
	s := n.Forest.Stats()
	var open, retired int
	var seq, iv uint64
	var segs, lag uint64
	var tiered bool
	perShard := make([]map[string]any, len(s.Shard))
	for i, sh := range s.Shard {
		open += sh.TxnOpen
		retired += sh.TxnRetired
		seq += sh.Seq
		iv += sh.IndexVersion
		perShard[i] = map[string]any{
			"docs":          sh.Docs,
			"seq":           sh.Seq,
			"index_version": sh.IndexVersion,
			"txn_open":      sh.TxnOpen,
			"txn_retired":   sh.TxnRetired,
			"root_hash":     fmt.Sprintf("%x", n.ShardStore(i).RootHash()),
		}
		if ws, ok := n.ShardStore(i).WALStats(); ok {
			perShard[i]["wal"] = walJSON(ws)
			segs += uint64(ws.LocalSegments)
			if ws.Tier != nil {
				perShard[i]["blob"] = blobJSON(ws.Tier)
				lag += ws.Tier.UploadLag
				tiered = true
			}
		}
	}
	m := map[string]any{
		"role":          "forest",
		"shards":        s.Shards,
		"docs":          s.Docs,
		"seq":           seq,
		"index_version": iv,
		"txn_open":      open,
		"txn_retired":   retired,
		"wal":           map[string]any{"local_segments": segs},
		"shard":         perShard,
	}
	if tiered {
		m["blob"] = map[string]any{"upload_lag": lag}
	}
	return m
}

// elemJSON is one query result on the wire: the element, its interval
// label (the paper's replication currency — label comparisons alone
// answer ancestry), and its immediate text content.
type elemJSON struct {
	Tag   string            `json:"tag"`
	Begin uint64            `json:"begin"`
	End   uint64            `json:"end"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Text  string            `json:"text,omitempty"`
}

type resultJSON struct {
	IndexVersion uint64     `json:"index_version"`
	Count        int        `json:"count"`
	Results      []elemJSON `json:"results"`
}

func newHandler(n node, maxWait time.Duration) http.Handler {
	h := &handler{n: n, maxWait: maxWait}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("GET /v1/changes", h.changes)
	mux.HandleFunc("GET /v1/query", h.query)
	mux.HandleFunc("GET /v1/elements", h.elements)
	mux.HandleFunc("POST /v1/insert", h.insert)
	mux.HandleFunc("PUT /v1/doc", h.putDoc)
	mux.HandleFunc("DELETE /v1/doc", h.deleteDoc)
	return mux
}

type handler struct {
	n       node
	maxWait time.Duration
}

// fresh applies the wait_seq freshness gate; a false return means the
// response has already been written.
func (h *handler) fresh(w http.ResponseWriter, r *http.Request) bool {
	raw := r.URL.Query().Get("wait_seq")
	if raw == "" {
		return true
	}
	seq, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		http.Error(w, "bad wait_seq: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := h.n.WaitFor(seq, h.maxWait); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ltree.ErrWaitTimeout) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return false
	}
	return true
}

func (h *handler) render(w http.ResponseWriter, elems []*ltree.Elem) {
	out := resultJSON{IndexVersion: h.n.IndexVersion(), Count: len(elems), Results: make([]elemJSON, 0, len(elems))}
	for _, e := range elems {
		ej := elemJSON{Tag: e.Tag()}
		if lab, err := h.n.Label(e); err == nil {
			ej.Begin, ej.End = lab.Begin, lab.End
		}
		if attrs := e.Attrs(); len(attrs) > 0 {
			ej.Attrs = make(map[string]string, len(attrs))
			for _, a := range attrs {
				ej.Attrs[a.Name] = a.Value
			}
		}
		for _, c := range e.Children() {
			if c.Kind() == ltree.TextNode {
				ej.Text += c.Data()
			}
		}
		out.Results = append(out.Results, ej)
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("q")
	if expr == "" {
		http.Error(w, "missing q", http.StatusBadRequest)
		return
	}
	if !h.fresh(w, r) {
		return
	}
	elems, err := h.n.Query(expr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h.render(w, elems)
}

func (h *handler) elements(w http.ResponseWriter, r *http.Request) {
	tag := r.URL.Query().Get("tag")
	if tag == "" {
		http.Error(w, "missing tag", http.StatusBadRequest)
		return
	}
	if !h.fresh(w, r) {
		return
	}
	h.render(w, h.n.Elements(tag))
}

func (h *handler) insert(w http.ResponseWriter, r *http.Request) {
	parent := r.URL.Query().Get("parent")
	if parent == "" {
		http.Error(w, "missing parent", http.StatusBadRequest)
		return
	}
	idx := -1
	if raw := r.URL.Query().Get("idx"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			http.Error(w, "bad idx: "+err.Error(), http.StatusBadRequest)
			return
		}
		idx = v
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seq, err := h.n.Insert(parent, idx, string(body))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"seq": seq})
}

func (h *handler) putDoc(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seq, err := h.n.PutDoc(id, string(body))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "seq": seq})
}

func (h *handler) deleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	seq, err := h.n.DeleteDoc(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "seq": seq})
}

// writeErr maps write-path errors onto HTTP statuses: follower refusals
// are 403, non-forest document routing is 501, a missing document is
// 404, everything else is the caller's fault.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, errReadOnly):
		status = http.StatusForbidden
	case errors.Is(err, errNotForest):
		status = http.StatusNotImplemented
	case errors.Is(err, ltree.ErrNoDoc):
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}

func (h *handler) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.n.Stats())
}

// changeJSON is one index entry change on the wire.
type changeJSON struct {
	Kind string `json:"kind"` // "added", "removed", "relabeled"
	Tag  string `json:"tag"`
	// Old/New are the entry's interval labels on each side; removed
	// changes carry only old, added only new, relabeled both.
	OldBegin uint64 `json:"old_begin,omitempty"`
	OldEnd   uint64 `json:"old_end,omitempty"`
	NewBegin uint64 `json:"new_begin,omitempty"`
	NewEnd   uint64 `json:"new_end,omitempty"`
	Level    int    `json:"level"`
	// OldLevel is the old entry's depth — it differs from Level only
	// for a relabel caused by a move across depths.
	OldLevel int `json:"old_level,omitempty"`
}

type changesJSON struct {
	From     uint64       `json:"from"`
	To       uint64       `json:"to"`
	FromRoot string       `json:"from_root"`
	ToRoot   string       `json:"to_root"`
	Count    int          `json:"count"`
	Changes  []changeJSON `json:"changes"`
}

func changeKind(k ltree.ChangeKind) string {
	switch k {
	case ltree.ChangeAdded:
		return "added"
	case ltree.ChangeRemoved:
		return "removed"
	case ltree.ChangeRelabeled:
		return "relabeled"
	}
	return "unknown"
}

// changes serves the long-poll change feed. 200 with the diff when the
// store moved past since (now, or within the wait bound), 204 when it
// did not, 410 when since has been retired (the client must resync from
// a full read), 501 on a forest.
func (h *handler) changes(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}
	cs, err := h.n.Changes(since, r.URL.Query().Get("path"), h.maxWait)
	switch {
	case errors.Is(err, errForestChanges):
		http.Error(w, err.Error(), http.StatusNotImplemented)
		return
	case errors.Is(err, ltree.ErrVersionRetired):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case cs == nil:
		w.WriteHeader(http.StatusNoContent)
		return
	}
	out := changesJSON{
		From:     cs.From,
		To:       cs.To,
		FromRoot: fmt.Sprintf("%x", cs.FromRoot),
		ToRoot:   fmt.Sprintf("%x", cs.ToRoot),
		Count:    len(cs.Changes),
		Changes:  make([]changeJSON, 0, len(cs.Changes)),
	}
	for _, c := range cs.Changes {
		cj := changeJSON{Kind: changeKind(c.Kind), Tag: c.Tag, Level: c.Level, OldLevel: c.OldLevel}
		switch c.Kind {
		case ltree.ChangeRemoved:
			cj.OldBegin, cj.OldEnd = c.Old.Begin, c.Old.End
		case ltree.ChangeAdded:
			cj.NewBegin, cj.NewEnd = c.New.Begin, c.New.End
		default:
			cj.OldBegin, cj.OldEnd = c.Old.Begin, c.Old.End
			cj.NewBegin, cj.NewEnd = c.New.Begin, c.New.End
		}
		out.Changes = append(out.Changes, cj)
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
