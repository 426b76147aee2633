package engine

import (
	"slices"
	"sort"
	"sync/atomic"

	"jsonlogic/internal/containment"
	"jsonlogic/internal/jauto"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/qir"
	"jsonlogic/internal/schema"
	"jsonlogic/internal/trace"
)

// The semantic optimizer pass: the paper's static-analysis decision
// procedures (satisfiability, Propositions 2/5/7/10; containment via
// unsat of φ ∧ ¬ψ) wired between lowering and physical planning.
// The pass runs once per plan-cache miss — never on a hit, so the
// 0-alloc cache-hit invariant is untouched — and every solver call is
// bounded by Options.SemanticBudget: an exhausted budget downgrades
// the verdict to "unknown", it never blocks or guesses.
//
// Three optimizations hang off it:
//
//   - unsat short-circuit: a provably unsatisfiable query compiles to
//     the constant-empty program (qir.Empty); the store answers it
//     without probing a posting list or evaluating a shard.
//   - containment-based plan-cache dedup: a bounded scan of resident
//     plans checks equivalence both ways (containment.RecursiveCaps);
//     an equivalent resident plan is reused under the new key, and
//     strict containment P ⊑ Q lets P borrow Q's index facts (they are
//     necessary conditions for P too, so the store can answer P by
//     filtering Q's candidate set instead of re-probing from scratch).
//   - schema-aware analysis: with Options.Schema set, a query whose
//     conjunction with the schema is unsatisfiable is marked empty for
//     schema-enforcing stores, and find facts the schema proves
//     universal are marked prunable — their posting lists cannot
//     narrow a conforming collection.
//
// Soundness of cross-plan reuse: JNL, JSL and mongo node semantics
// depend only on the node's subtree, so document-level equivalence of
// the recursive-JSL forms implies identical Validate *and* Eval on
// every tree. JSONPath Eval selects path-reached nodes — a property
// boolean equivalence does not preserve — so JSONPath plans are
// excluded from aliasing (their unsat short-circuit is still sound:
// "selects at least one node" is a document predicate).

// semantics is the engine's semantic-pass state: solver bounds, the
// optional compiled schema, and the pass's counters.
type semantics struct {
	caps   jauto.Caps
	schema *SchemaInfo

	checks   atomic.Uint64 // plans analyzed (cache misses)
	unsat    atomic.Uint64 // plans proved unsatisfiable
	unknown  atomic.Uint64 // verdicts lost to budget/undecidability
	aliases  atomic.Uint64 // cache keys served by an equivalent resident plan
	borrowed atomic.Uint64 // facts borrowed via strict containment
	pruned   atomic.Uint64 // facts the schema proved universal
}

// semanticDedupScan bounds the resident plans examined per cache miss.
const semanticDedupScan = 8

// Semantic verdicts, as recorded on plans and trace spans.
const (
	VerdictSat         = "sat"
	VerdictUnsat       = "unsat"
	VerdictSchemaUnsat = "schema_unsat"
	VerdictUnknown     = "unknown"
)

// semanticInfo is the per-plan outcome of the pass; immutable once the
// plan is published to the cache.
type semanticInfo struct {
	verdict      string          // "", VerdictSat, VerdictUnsat, ...
	unsat        bool            // no document at all can match
	schemaUnsat  bool            // no schema-conforming document can match
	borrowedFrom string          // source of the containing resident plan
	borrowed     []string        // rendered facts borrowed from it
	pruned       map[string]bool // find facts the schema proves universal
}

// SchemaInfo is a JSON Schema compiled for the planner: the Theorem 1
// JSL translation (for the conjunction tests above) plus a compiled
// plan of that translation (for validating writes). Build one with
// CompileSchema and share it between the engine and the store.
type SchemaInfo struct {
	src  *schema.Schema
	rec  *jsl.Recursive
	plan *Plan
}

// CompileSchema translates a parsed schema into its recursive-JSL form
// and compiles that form into an executable plan.
func CompileSchema(s *schema.Schema) (*SchemaInfo, error) {
	r, err := s.ToJSL()
	if err != nil {
		return nil, err
	}
	p, err := FromJSL("schema", r)
	if err != nil {
		return nil, err
	}
	return &SchemaInfo{src: s, rec: r, plan: p}, nil
}

// Plan returns the compiled validation plan of the schema's JSL
// translation; Engine.Validate(info.Plan(), t) decides conformance.
func (si *SchemaInfo) Plan() *Plan { return si.plan }

// Schema returns the parsed schema the info was compiled from.
func (si *SchemaInfo) Schema() *schema.Schema { return si.src }

// Unsatisfiable reports whether the semantic pass proved that no
// document can match the plan. The store short-circuits such plans to
// an empty answer without touching the index.
func (p *Plan) Unsatisfiable() bool { return p.sem.unsat }

// SchemaUnsatisfiable reports whether the semantic pass proved that no
// document conforming to the engine's schema can match the plan. Only
// stores that enforce the same schema on writes may short-circuit on
// it — unlike Unsatisfiable it says nothing about arbitrary documents.
func (p *Plan) SchemaUnsatisfiable() bool { return p.sem.schemaUnsat }

// SemanticVerdict returns the pass's verdict for the plan ("sat",
// "unsat", "schema_unsat", "unknown"), or "" when the pass did not run
// (disabled engine, or a plan compiled outside an engine).
func (p *Plan) SemanticVerdict() string { return p.sem.verdict }

// SchemaPruned returns the rendered find facts the schema proved
// universal over conforming documents (nil when none): their index
// terms cannot narrow a conforming collection, so a schema-enforcing
// store's planner skips them.
func (p *Plan) SchemaPruned() map[string]bool { return p.sem.pruned }

// recursiveJSLForm translates the plan's reference AST into the
// recursive-JSL form the decision procedures work on, or nil when the
// plan uses constructs outside them (EQ(α,β) is undecidable by
// Proposition 4; test-only star loops produce unguarded recursion).
// For JSONPath the form encodes the *document* predicate "the path
// selects at least one node" — the plan's Validate semantics.
func recursiveJSLForm(p *Plan) *jsl.Recursive {
	switch p.lang {
	case LangJSL, LangMongoFind:
		return p.rec
	case LangJNL:
		r, err := jauto.JNLToRecursiveJSL(p.unary)
		if err != nil {
			return nil
		}
		return r
	case LangJSONPath:
		r, err := jauto.JNLToRecursiveJSL(jnl.Exists{Path: p.path})
		if err != nil {
			return nil
		}
		return r
	}
	return nil
}

// factFormula renders a path fact as the JSL formula it asserts: the
// node at Steps exists and meets the class or value restriction.
func factFormula(f jsontree.PathFact) jsl.Formula {
	var leaf jsl.Formula = jsl.True{}
	switch {
	case f.Value != nil:
		leaf = jsl.EqDoc{Doc: f.Value}
	case f.HasClass:
		switch f.Class {
		case jsontree.ObjectNode:
			leaf = jsl.IsObj{}
		case jsontree.ArrayNode:
			leaf = jsl.IsArr{}
		case jsontree.StringNode:
			leaf = jsl.IsStr{}
		case jsontree.NumberNode:
			leaf = jsl.IsInt{}
		}
	}
	out := leaf
	for i := len(f.Steps) - 1; i >= 0; i-- {
		s := f.Steps[i]
		if s.IsKey {
			out = jsl.DiaWord(s.Key, out)
		} else {
			out = jsl.DiaAt(s.Index, out)
		}
	}
	return out
}

// analyze runs the satisfiability and schema checks on a freshly
// compiled plan, recording a "semantic" child span under the compile
// span. The plan is not yet published, so mutation is safe.
func (e *Engine) analyze(p *Plan, tr *trace.Trace, parent trace.SpanID) {
	s := e.sem
	s.checks.Add(1)
	sp := tr.Start(parent, "semantic")
	p.semJSL = recursiveJSLForm(p)
	verdict := VerdictUnknown
	if p.semJSL != nil {
		_, sat, err := jauto.SatisfiableJSLCaps(p.semJSL, s.caps)
		switch {
		case err != nil:
			// Budget exhausted or outside the decidable fragment: the
			// pass reports "unknown" and the plan runs unoptimized.
		case sat:
			verdict = VerdictSat
		default:
			verdict = VerdictUnsat
			p.sem.unsat = true
			p.prog = qir.Empty(p.query, VerdictUnsat)
			s.unsat.Add(1)
		}
	}
	if s.schema != nil && !p.sem.unsat {
		e.analyzeSchema(p)
		if p.sem.schemaUnsat {
			verdict = VerdictSchemaUnsat
		}
	}
	if verdict == VerdictUnknown {
		s.unknown.Add(1)
	}
	p.sem.verdict = verdict
	tr.AttrStr(sp, "verdict", verdict)
	if n := len(p.sem.pruned); n > 0 {
		tr.Attr(sp, "schema_pruned", int64(n))
	}
	tr.End(sp)
}

// analyzeSchema runs the schema conjunction tests: is any conforming
// document able to match the plan at all, and which of the plan's find
// facts does the schema decide for every conforming document?
func (e *Engine) analyzeSchema(p *Plan) {
	s := e.sem
	conjunctionDecidedSat := false
	if p.semJSL != nil {
		_, sat, err := containment.ConjunctionSatisfiable(p.semJSL, s.schema.rec, s.caps)
		switch {
		case err != nil:
		case !sat:
			p.sem.schemaUnsat = true
			return
		default:
			conjunctionDecidedSat = true
		}
	}
	// Per-fact tests. Facts are necessary conditions for matching, so
	// schema ∧ fact unsatisfiable ⇒ no conforming document matches;
	// schema ∧ ¬fact unsatisfiable ⇒ every conforming document carries
	// the fact and its index term prunes nothing. Bounded so a plan
	// with many facts cannot multiply the compile budget unboundedly.
	const maxFactChecks = 8
	for i, f := range p.findFacts {
		if i >= maxFactChecks {
			break
		}
		ff := factFormula(f)
		if !conjunctionDecidedSat {
			_, sat, err := containment.ConjunctionSatisfiable(s.schema.rec, jsl.NonRecursive(ff), s.caps)
			if err == nil && !sat {
				p.sem.schemaUnsat = true
				return
			}
		}
		_, sat, err := containment.ConjunctionSatisfiable(s.schema.rec, jsl.NonRecursive(jsl.Not{Inner: ff}), s.caps)
		if err == nil && !sat {
			if p.sem.pruned == nil {
				p.sem.pruned = make(map[string]bool)
			}
			if !p.sem.pruned[f.String()] {
				p.sem.pruned[f.String()] = true
				s.pruned.Add(1)
			}
		}
	}
}

// dedup scans the most recently used resident plans, of any language
// but JSONPath, for one that is provably equivalent to p (returned for
// reuse under p's key) or that strictly contains p (its facts are
// borrowed into p). Containment checks run outside the cache lock on
// an immutable snapshot; every check is budget-bounded and a failed
// or exhausted check simply skips the candidate. So does a candidate
// whose find facts contradict p's (disjointFacts): no document matches
// both, so neither contains the other unless one is unsatisfiable, and
// the proofs, which would almost always fail, are not attempted.
//
// A scan records a "dedup" child span under parent carrying the
// resident plans scanned, the containment proofs run and the outcome
// (alias, borrowed or none).
func (e *Engine) dedup(p *Plan, tr *trace.Trace, parent trace.SpanID) *Plan {
	s := e.sem
	if p.lang == LangJSONPath || p.semJSL == nil || p.sem.unsat || p.sem.schemaUnsat {
		return nil
	}
	sp := tr.Start(parent, "dedup")
	resident := e.cache.recent(semanticDedupScan)
	var alias *Plan
	proofs, outcome := 0, "none"
	for _, q := range resident {
		if q.lang == LangJSONPath || q.semJSL == nil || q.sem.unsat || q.sem.schemaUnsat {
			continue
		}
		if disjointFacts(p.findFacts, q.findFacts) {
			continue
		}
		proofs++
		pq, err := containment.RecursiveCaps(p.semJSL, q.semJSL, s.caps)
		if err != nil || !pq.Contained {
			continue
		}
		proofs++
		qp, err := containment.RecursiveCaps(q.semJSL, p.semJSL, s.caps)
		if err == nil && qp.Contained {
			s.aliases.Add(1)
			alias, outcome = q, "alias"
			break
		}
		// Strict containment P ⊑ Q: every document matching P matches Q,
		// so Q's find facts are necessary for P too; borrowing them can
		// only sharpen P's index plan (the store's planner dedups terms).
		if n := p.borrowFacts(q); n > 0 {
			s.borrowed.Add(uint64(n))
			outcome = "borrowed"
		}
	}
	tr.Attr(sp, "scanned", int64(len(resident)))
	tr.Attr(sp, "proofs", int64(proofs))
	tr.AttrStr(sp, "outcome", outcome)
	tr.End(sp)
	return alias
}

// disjointFacts reports whether some fact of ps contradicts some fact
// of qs on an identical step path: two unequal values, two unequal
// classes, or a value whose kind is not the other fact's class. Find
// facts are necessary conditions, so then no document matches both
// plans. It allocates nothing.
func disjointFacts(ps, qs []jsontree.PathFact) bool {
	for _, f := range ps {
		fc, fok := factClass(f)
		if !fok {
			continue
		}
		for _, g := range qs {
			gc, gok := factClass(g)
			if !gok || !slices.Equal(f.Steps, g.Steps) {
				continue
			}
			if fc != gc || f.Value != nil && g.Value != nil && !jsonval.Equal(f.Value, g.Value) {
				return true
			}
		}
	}
	return false
}

// factClass returns the node kind a fact requires — its class, or the
// kind of its value — and false when it requires none.
func factClass(f jsontree.PathFact) (jsontree.Kind, bool) {
	if f.Value == nil {
		return f.Class, f.HasClass
	}
	switch f.Value.Kind() {
	case jsonval.Number:
		return jsontree.NumberNode, true
	case jsonval.String:
		return jsontree.StringNode, true
	case jsonval.Object:
		return jsontree.ObjectNode, true
	}
	return jsontree.ArrayNode, true
}

// borrowFacts appends q's find facts that p does not already carry,
// recording their provenance for Explain; returns how many were added.
func (p *Plan) borrowFacts(q *Plan) int {
	seen := make(map[string]bool, len(p.findFacts))
	for _, f := range p.findFacts {
		seen[f.String()] = true
	}
	n := 0
	for _, f := range q.findFacts {
		key := f.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		p.findFacts = append(p.findFacts, f)
		p.sem.borrowed = append(p.sem.borrowed, key)
		n++
	}
	if n > 0 {
		p.sem.borrowedFrom = q.source
	}
	return n
}

// SemanticExplain is the semantic-pass section of a plan explanation.
type SemanticExplain struct {
	// Verdict is the satisfiability verdict ("sat", "unsat",
	// "schema_unsat", "unknown").
	Verdict string `json:"verdict"`
	// BorrowedFrom and BorrowedFacts report index facts inherited from
	// a strictly containing resident plan.
	BorrowedFrom  string   `json:"borrowed_from,omitempty"`
	BorrowedFacts []string `json:"borrowed_facts,omitempty"`
	// SchemaPruned lists find facts the schema proved universal over
	// conforming documents (their index terms are skipped).
	SchemaPruned []string `json:"schema_pruned,omitempty"`
}

// semanticExplain renders the pass outcome, or nil when it did not run.
func (p *Plan) semanticExplain() *SemanticExplain {
	if p.sem.verdict == "" {
		return nil
	}
	ex := &SemanticExplain{
		Verdict:       p.sem.verdict,
		BorrowedFrom:  p.sem.borrowedFrom,
		BorrowedFacts: p.sem.borrowed,
	}
	for fact := range p.sem.pruned {
		ex.SchemaPruned = append(ex.SchemaPruned, fact)
	}
	sort.Strings(ex.SchemaPruned)
	return ex
}
