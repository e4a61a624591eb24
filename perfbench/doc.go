// Workloads, layers and metrics of the benchmark.
//
// Load shape: closed loop with a fixed client count, at most two
// requests in flight (the box the benchmark was written on has two
// CPUs). Every latency is timed at the client, from sending the request
// until its body has been read. A class of requests reports p50, and
// p99 only when the run holds at least 1000 samples of that class.
//
//	edit    leader (-wal, fsync on every commit) + one follower, seeded
//	        with XMarkLite scale 120. One client: POST /v1/insert under a
//	        rooted parent (hotspot positions, a fragment with a unique id
//	        and a name child), then a wait_seq read of that element from
//	        the follower; every tenth iteration also a rooted path query
//	        on the leader. A fixed 120 inserts per --seconds, because the
//	        document grows as the run goes.
//	read    leader + follower seeded with XMarkLite scale 600, no writes.
//	        One client per node: 70% point (1 result), 20% rooted path
//	        (3000 results), 10% scan (7200 results).
//	forest  ltreed -forest with 4 shards, preloaded with 64 XMarkLite
//	        scale-4 documents. One client: 20% PUT /v1/doc (replace a
//	        document), 70% point, 10% scan. A fixed 600 ops per --seconds,
//	        because recovery replays every put of the run.
//
// Two known costs stay visible on purpose: edit's parents are rooted
// paths, so each insert resolves the root through Index.All on a fresh
// index version (a sort of every entry); and the edit follower keeps
// serving reads while it applies.
//
// End-to-end metrics (--trace 0): BENCHMARK.json gates the ones every
// workload has (setup_s, ops_s, p50_ms and p99_ms over all requests,
// peak_rss_mb). Each run also prints and stores recovery_s, the
// per-class figures write_p50_ms/write_p99_ms (insert or PUT ack),
// ryw_p50_ms/ryw_p99_ms (follower wait_seq read after the ack),
// query_point_*, query_path_*, query_scan_*, their sample counts, and
// failed_frac; compare judges these too. recovery_s is not gated: on a
// shared two-CPU box the half-second restart of the read leader drifts
// by up to a quarter between runs.
// setup_s is the median of five cluster starts, each timed from the
// first process launch until every node answers /healthz with its seed
// loaded (forest: preloaded). recovery_s is the median of three to
// seven kill -9 and restart cycles of the leader (forest node) on the
// same directory, each timed until /healthz answers. kill -9 keeps the
// page cache, so the recovery check (every acked id present exactly
// once, same root hash) checks ack ordering, not fsync.
//
// Per-layer metrics (--trace 1) come from replaying the run's op stream
// in this process, twice. The Store replay makes the calls the ltreed
// handlers make (Store.Query, Store.Update/Batch.InsertXML, Txn.Query and
// drain, Forest.Put) with a Follower attached over loopback TCP through
// storage.NewShipServer and OpenRemoteTail. The layered replay mirrors
// the commit path call by call (xmldom.ParseString, Doc.InsertSubtree,
// Index.Apply, Index.RootHash, storage.EncodeOps, WAL.AppendBatch, then
// WAL.Sync timed apart) and the query path (query.Parse, Index.All for
// rooted paths, the lazy join). Latencies are span medians; a layer the
// workload does not reach reads 0. The three roots (ltreed, Store
// replay, layered replay) must agree. Spans carry name, start, end,
// parent and op ID; they are written with a per-layer self-time table to
// .bench_build/results/<workload>-seed<n>-spans.json.
package main
