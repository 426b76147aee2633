package engine

import (
	"context"
	"runtime"

	"jsonlogic/internal/jauto"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/trace"
)

// Options configure an Engine. The zero value selects sensible
// defaults: a 256-plan cache and no semantic pass.
type Options struct {
	// PlanCacheSize bounds the LRU plan cache (default 256).
	PlanCacheSize int

	// SemanticBudget enables the compile-time semantic pass (see
	// semantic.go): positive values bound each solver invocation's step
	// count (jauto.Caps.MaxSteps); 0 — the default — disables the pass
	// entirely. The pass runs only on plan-cache misses, so cache hits
	// stay allocation-free whatever the budget.
	SemanticBudget int
	// Schema attaches a compiled JSON Schema (CompileSchema) for
	// schema-aware query analysis. Requires SemanticBudget > 0 to have
	// any effect. Stores that enforce the same schema on writes may
	// additionally short-circuit schema-unsatisfiable queries.
	Schema *SchemaInfo
}

// DefaultPlanCacheSize is the plan-cache bound used when Options leaves
// PlanCacheSize zero.
const DefaultPlanCacheSize = 256

// Engine is the shared, goroutine-safe query service: it owns the plan
// cache and the NDJSON readers' worker count. One Engine is intended to
// be shared process-wide; all methods may be called concurrently.
type Engine struct {
	workers int // NDJSON reader pool size: GOMAXPROCS at New
	cache   *planCache
	sem     *semantics // nil when the semantic pass is disabled
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.PlanCacheSize <= 0 {
		opts.PlanCacheSize = DefaultPlanCacheSize
	}
	e := &Engine{workers: runtime.GOMAXPROCS(0), cache: newPlanCache(opts.PlanCacheSize)}
	if opts.SemanticBudget > 0 {
		caps := jauto.DefaultCaps()
		caps.MaxSteps = opts.SemanticBudget
		e.sem = &semantics{caps: caps, schema: opts.Schema}
	}
	return e
}

// Compile returns the plan for (lang, src), compiling at most once per
// cache residency. Concurrent compiles of the same source are
// deduplicated at insert: every caller receives the same *Plan.
// Compilation errors are not cached.
func (e *Engine) Compile(lang Language, src string) (*Plan, error) {
	return e.CompileTraced(lang, src, nil)
}

// CompileTraced is Compile recording a "compile" span on tr (plan
// cache hit/miss, and on a miss the front-end parse, QIR compile and,
// with the semantic pass on, its semantic and dedup stages as child
// spans). tr may be nil — the untraced path — in which case the
// recorder calls reduce to nil checks and a cache hit stays
// allocation-free.
func (e *Engine) CompileTraced(lang Language, src string, tr *trace.Trace) (*Plan, error) {
	key := planKey{lang: lang, src: src}
	if p, ok := e.cache.get(key); ok {
		if tr != nil {
			sp := tr.Start(tr.Root(), "compile")
			tr.AttrStr(sp, "plan_cache", "hit")
			tr.End(sp)
		}
		return p, nil
	}
	sp := tr.Start(tr.Root(), "compile")
	tr.AttrStr(sp, "plan_cache", "miss")
	p, err := compileTraced(lang, src, tr, sp)
	if err == nil && e.sem != nil {
		e.analyze(p, tr, sp)
		if q := e.dedup(p, tr, sp); q != nil {
			tr.AttrStr(sp, "semantic_alias", q.Source())
			tr.End(sp)
			return e.cache.add(key, q), nil
		}
	}
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	return e.cache.add(key, p), nil
}

// CacheStats returns a snapshot of the plan cache's counters, plus the
// semantic pass's when it is enabled.
func (e *Engine) CacheStats() CacheStats {
	st := e.cache.stats()
	if e.sem != nil {
		st.SemanticChecks = e.sem.checks.Load()
		st.SemanticUnsat = e.sem.unsat.Load()
		st.SemanticUnknown = e.sem.unknown.Load()
		st.SemanticAliases = e.sem.aliases.Load()
		st.SemanticBorrowed = e.sem.borrowed.Load()
		st.SchemaPrunedFacts = e.sem.pruned.Load()
	}
	return st
}

// Eval runs the plan's node-selection semantics over one tree,
// returning a fresh slice: EvalAppendCtx with no context and no buffer.
func (e *Engine) Eval(p *Plan, t *jsontree.Tree) ([]jsontree.NodeID, error) {
	return e.EvalAppendCtx(nil, p, t, nil)
}

// Validate runs the plan's boolean semantics over one tree:
// ValidateCtx with no context.
func (e *Engine) Validate(p *Plan, t *jsontree.Tree) (bool, error) {
	return e.ValidateCtx(nil, p, t)
}

// EvalAppend is Eval appending the selected nodes to out (which may be
// nil), returning the extended slice: EvalAppendCtx with no context.
func (e *Engine) EvalAppend(p *Plan, t *jsontree.Tree, out []jsontree.NodeID) ([]jsontree.NodeID, error) {
	return e.EvalAppendCtx(nil, p, t, out)
}

// ValidateCtx computes the plan's boolean semantics over one tree via
// the QIR program:
//
//   - JNL: does the root satisfy the formula (J |= φ at ε).
//   - JSONPath: does the path select at least one node.
//   - JSL: does the document satisfy the expression (J |= Δ).
//   - Mongo find: does the document match the filter.
//
// Cancellation is cooperative: evaluation polls a non-nil ctx
// periodically and returns ctx.Err() once it is done; a nil ctx is
// never polled. The plan may be shared — all mutable executor state is
// call-local, pooled on the compiled program, so a plan-cache-hit
// ValidateCtx is allocation-free.
func (e *Engine) ValidateCtx(ctx context.Context, p *Plan, t *jsontree.Tree) (bool, error) {
	return p.prog.MatchCtx(ctx, t)
}

// EvalAppendCtx computes the plan's node-selection semantics over one
// tree via the QIR program, appending the selected nodes to out, with
// ValidateCtx's cancellation contract:
//
//   - JNL: the nodes satisfying the unary formula.
//   - JSONPath: the nodes selected from the root.
//   - JSL: the nodes whose subtree satisfies the expression, per the
//     (json(n), n) |= Δ relation of Lemma 3.
//   - Mongo find: the nodes whose subtree matches the filter (the root
//     node's membership is the find() answer for the document).
//
// Callers that reuse the buffer across trees
// (out, _ = e.EvalAppendCtx(ctx, p, t, out[:0])) evaluate without
// allocating once the buffer has grown to the working-set size — the
// store's per-shard query workers are the intended users.
func (e *Engine) EvalAppendCtx(ctx context.Context, p *Plan, t *jsontree.Tree, out []jsontree.NodeID) ([]jsontree.NodeID, error) {
	return p.prog.EvalAppendCtx(ctx, t, out)
}
