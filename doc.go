// Package ltree is a dynamic, order-preserving labeling library for
// ordered XML data — a full reproduction of Chen, Mihaila, Bordawekar and
// Padmanabhan, "L-Tree: a Dynamic Labeling Structure for Ordered XML
// Data" (EDBT 2004 Workshops, LNCS 3268).
//
// An L-Tree assigns every XML tag an integer label such that document
// order is label order and element nesting is interval containment, so
// ancestor/descendant queries ("book//title") become label comparisons —
// one self-join in a relational embedding. Unlike static begin/end
// numbering, the L-Tree keeps labels valid under insertions with O(log n)
// amortized relabelings and O(log n)-bit labels, tunable through the
// parameters (f, s).
//
// # Quickstart
//
//	st, err := ltree.OpenString(`<book><title>L-Trees</title></book>`, ltree.DefaultParams)
//	if err != nil { ... }
//	titles, _ := st.Query("book//title")
//	ch, _ := st.InsertElement(st.Root(), 1, "chapter")   // labels stay valid
//	lab, _ := st.Label(ch)                               // (begin, end) interval
//
// Reads scale through snapshot-isolated transactions: View pins one
// index version for a whole block of reads, and queries stream their
// matches through cursors instead of materializing result sets:
//
//	_ = st.View(func(tx *ltree.Txn) error {
//	    res, _ := tx.Query("//chapter//title")
//	    for el := range res.All() { ... }   // lazy; break any time
//	    return nil
//	})
//
// # Layers
//
//   - Store: the concurrency-first engine — parallel readers over an
//     immutable copy-on-write tag index, write batches that patch the
//     index incrementally, WAL persistence whose checkpoints are the
//     versions LoadAt restores (this file's API; start here, and see
//     DESIGN.md for the engine layering).
//   - Txn / Results: snapshot-isolated read transactions pinning one
//     index version, with lazy streaming query results (DESIGN.md §3.4)
//     evaluated by a zig-zag structural join with chunk-level predicate
//     pushdown and a Txn-scoped predicate memo (DESIGN.md §3.5).
//   - Reader: the unified read surface — one interface over Store,
//     Follower, and Forest, so generic consumers (the ltreed handlers,
//     tools, tests) are written once against any node role.
//   - Hash / ChangeSet / Watcher: Merkle-hashed index versions — every
//     published version carries a partition-independent content hash;
//     DiffVersions computes entry-level diffs in O(changed chunks),
//     Watch subscribes to a gap-free change feed with version cursors
//     and path scoping, and replicas compare stamped root hashes to
//     detect divergence at O(1) per applied batch (DESIGN.md §10;
//     ltreed serves GET /v1/changes).
//   - Forest: document-partitioned Stores behind one router — writes
//     route to a document's shard and commit in parallel across shards,
//     queries scatter-gather through a k-way merge in global
//     (begin, shard) order, recovery replays every shard WAL
//     concurrently (DESIGN.md §8; cmd/ltreed serves one with -forest).
//   - Follower: a log-shipping read replica fed off a leader's WAL —
//     catch-up plus live tail, the full Txn read surface at a measurable
//     lag, promote-to-writable on leader handoff (DESIGN.md §7). The
//     feed attaches in-process or over the wire: storage.ShipServer
//     serves a leader's WAL on any net.Conn and storage.RemoteTailSource
//     satisfies the same contract across it (DESIGN.md §7.5), with
//     cmd/ltreed packaging leader + follower fleet as an HTTP daemon.
//   - BlobTier: an asynchronous object-store tier under the WAL —
//     AttachBlobTier mirrors sealed segments and checkpoints into any
//     BlobStore off the commit path, ReleaseLocal bounds local disk to
//     the active tail while reads fetch released history back, LoadAt
//     reconstructs any blob-durable seq bit-identically, and
//     OpenFollowerSeeded bootstraps a replica from the object store
//     instead of the leader (DESIGN.md §9; ltreed -blob serves it).
//   - Tree / Node: the raw materialized L-Tree over abstract list slots
//     (paper §2), for embedding in other systems.
//   - Virtual: the B-tree-backed virtual L-Tree (paper §4.2) that stores
//     only the labels.
//   - Document / Elem / Label: the XML binding used by Store.
//
// The experiment harness reproducing the paper's figures and analytic
// tables lives in cmd/ltreebench; see EXPERIMENTS.md for results.
package ltree
