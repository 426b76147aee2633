// Package engine is the production-oriented evaluation layer over the
// formal core: it compiles query sources once into immutable, shareable
// plans, caches them, and evaluates one plan over an NDJSON stream of
// documents concurrently.
//
// # Architecture
//
// Three layers separate what is immutable from what is per-evaluation:
//
//   - Plan: a compiled query — language tag, source text, the parsed
//     front-end AST, and the query lowered into the unified algebra of
//     internal/qir with its compiled physical operator program. All
//     four languages evaluate through that one program; the front-end
//     ASTs are retained as differential-test oracles
//     (Plan.EvalReference, Plan.ValidateReference). Plans are deeply
//     immutable after Compile: nothing is mutated by evaluation and the
//     embedded relang.Regex values are safe for concurrent use, so one
//     Plan may be shared by any number of goroutines.
//
//   - Plan cache: a bounded LRU keyed by (language, source text) with
//     hit/miss/eviction statistics, so front ends that receive the same
//     query repeatedly (the "heavy traffic" scenario of the roadmap) pay
//     parse + translate + normalize once, not per request.
//
//   - Evaluation: one body per semantics — Engine.ValidateCtx
//     (boolean) and Engine.EvalAppendCtx (node selection) — runs the
//     plan's QIR program, which takes its per-(plan, tree) mutable
//     state (closure and definition memo tables, regex and uniqueness
//     memos) from a pool on the program and returns it before the call
//     ends. That state is never shared, which makes the public API
//     goroutine-safe without locks on the hot path. The context is a
//     parameter of that one path: a nil one is never polled, a live
//     one is polled at the executor's checkpoints and ends the call
//     with ctx.Err(). Validate, Eval and EvalAppend are one-line
//     wrappers passing no context.
//
// This mirrors the split the paper itself makes: the formula (compiled
// once; Propositions 1 and 3 measure evaluation per formula size |φ|)
// versus the per-document structures (node sets, equality classes, edge
// marks) that evaluation builds in O(|J|·|φ|).
//
// # Streaming entry points
//
// The NDJSON path (EvalReader, ValidateReader) accepts an io.Reader
// holding one JSON document per line; ScanNDJSON splits the lines —
// the rule the store's bulk ingest shares — and GOMAXPROCS workers
// parse each with jsontree.Parse, the store's route, then evaluate
// in parallel. A malformed line fails that line only, not the batch.
// BuildTree is the same parser behind a read of an io.Reader, into
// the pooled Builder (PUT /docs) or one the caller keeps.
// Fanning a plan out over stored documents is internal/store's job
// (Find, Select).
//
// # Relation to the reference semantics
//
// The engine adds no semantics of its own: results are defined to be
// node-for-node identical to a fresh jnl.Evaluator / jsl.Evaluator run
// on the same tree, reachable per plan through EvalReference and
// ValidateReference. diff_test.go enforces that contract over
// thousands of randomized (tree, query) pairs per front end, and
// race_test.go pins the plan-sharing design under the race detector.
// Plan.Explain renders the lowered logical tree and the physical
// operator program; the store's Explain adds the run-time access plan.
package engine
