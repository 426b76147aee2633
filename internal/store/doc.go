// Package store implements the storage tier of the query service: a
// sharded, goroutine-safe in-memory collection of JSON documents with
// an inverted path index, queried through the compiled plans of
// internal/engine.
//
// # Architecture
//
// A Store holds N shards (N a power of two, chosen at construction).
// A document ID is hashed (FNV-1a) and the low bits pick the shard;
// each shard owns one pathIndex — whose dictionary is also the shard's
// document storage — guarded by one RWMutex. Writers lock only their
// document's shard, so unrelated writes proceed in parallel.
//
// # One write pipeline
//
// Every mutation — Put, PutTree, Delete, each bulk NDJSON line, each
// replayed WAL record — is the same function (write, in store.go):
// degraded gate, WAL frame rendered outside the lock by the one tree
// encoder (jsontree.Tree.AppendJSON), shard lock, precondition, WAL
// append, apply, the roll capture if the append brought the WAL
// generation to SnapshotEvery, unlock, commit. Its mode flags are all
// the callers differ in: ifAbsent (bulk auto-IDs never clobber),
// deferCommit (bulk forces once per batch) and noLog (replay).
//
// # One query pipeline
//
// Every read — Find, Select, their Traced and Scan variants, Explain —
// is the same generic function (run, in query.go): a compile-time
// emptiness proof answers first; otherwise the cost-based planner
// picks the access path; then the query fans out across shards on a
// bounded worker pool (GOMAXPROCS workers, capped by the shard count;
// the calling goroutine is one of the workers), each worker
// taking the shard read lock just long enough to snapshot candidate
// (id, tree) pairs and evaluating outside the lock — trees are
// immutable, so evaluation never races with writers — before the
// per-shard results merge into one deterministically sorted answer.
// Find and Select differ only in their collector: what one evaluated
// candidate contributes (its ID via engine.ValidateCtx, or a
// Selection via engine.EvalAppendCtx into a reused node buffer). The
// exported entry points are one-line wrappers choosing the context,
// the trace recorder, a forced access plan (the reference scans) and
// the collector; one tail (account) books the counters, and Explain
// runs the identical pipeline without it. A context is a parameter of
// that one path, not a second path: nil is never polled, a live one is
// checked before every shard, every 64 documents and inside the
// executor, and once a shard task fails no worker starts another.
//
// # The inverted path index
//
// Documents are dictionary-encoded per shard: each insert assigns the
// next dense uint32 ordinal, deletes tombstone the ordinal in O(1),
// and compaction renumbers the shard once tombstones reach the live
// count. The pathIndex maps structural terms
// to posting lists of sorted ordinals — intersected with a galloping/
// two-pointer merge, never map iteration — maintained incrementally on
// every insert and delete:
//
//   - a presence term for every root-to-node key/index path,
//   - a class term for every path plus the node's kind
//     (object/array/string/number — the paper's value model has no
//     booleans or nulls),
//   - a value term for every leaf path plus its exact string or number
//     value.
//
// Terms are 64-bit FNV hashes of the path (and class/value tag), so
// the index stores no path strings; hash collisions can only merge
// posting lists, which adds false candidates but never loses one.
//
// # Query planning: statistics → cost-based access plan → candidates
//
// A query arrives as an engine.Plan carrying compile-time index facts
// (Plan.FindFacts for document matching, Plan.SelectFacts for node
// selection — derived once from the plan's QIR lowering). The
// cost-based planner (planner.go) turns the facts into index terms,
// consults the Statistics interface (document count, per-term
// posting-list cardinalities, per-path class histograms) and chooses
// per query: index or scan (scan when even the best term matches most
// of the collection), which terms to intersect (near-useless terms are
// skipped), and in what order (ascending cardinality, so the smallest
// posting list drives the intersection and the likeliest-to-fail
// membership probes run first). Candidates are then evaluated by the
// shared QIR executor. Every fact is a necessary condition of
// matching, so a document outside the candidate set provably cannot
// match and the indexed result equals the full scan result
// node-for-node — the differential tests in this package enforce
// exactly that against both the forced scan and the retired front-end
// evaluators, including for plans that yield no facts (negation,
// disjunction, recursion, non-deterministic axes), which transparently
// fall back to scanning. Facts deeper than the index bound degrade to
// the presence of their in-bound prefix rather than disabling the
// index. An exact find (engine.Plan.FindExact: facts that are also
// sufficient) checks its segment candidates against every fact on
// their stored text instead of parsing and evaluating them. Store.Explain
// reports the chosen plan, whether it was exact, and estimated versus
// actual cardinalities; the estimate provably bounds the candidate
// count.
//
// # Durability: write-ahead log and segment recovery
//
// New builds an in-memory store; Open adds durability under
// Options.DataDir. Every mutation is framed (length-prefixed,
// CRC-protected) and appended to its shard's log while the shard lock
// is held — so log order equals apply order — and acknowledged only
// once the configured FsyncPolicy holds: always (group-commit fsync
// per acknowledgement), interval (a 100 ms background timer), or off
// (OS write-back; Close still flushes and syncs). Compaction
// (compaction.go) is taken by the write that brings a shard's WAL
// generation to SnapshotEvery records: it cuts the WAL and captures
// the shard, and a background build merges the shard into an
// immutable segment file with write-temp-then-rename atomicity;
// recovery maps the newest segment that validates end-to-end — it
// becomes the shard's segTier, one concrete struct (reader, tombstone
// bitmap, live count) under the memtable — replays the WAL generations
// from it on through write, and truncates torn tails. The
// record-stream snap-*.snap format of pre-segment builds is refused,
// never skipped. Stats exposes the WAL, compaction and recovery
// counters; crash-recovery tests in this package pin a reopened store
// node-for-node to an in-memory reference driven through the same
// mutations.
//
// Package cmd/jsonstored serves a Store over HTTP; see
// examples/storequery for a walkthrough and docs/ARCHITECTURE.md for
// the whole pipeline.
package store
