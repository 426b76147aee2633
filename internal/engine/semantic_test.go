package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/schema"
	"jsonlogic/internal/trace"
)

// newSemanticEngine returns an engine with the semantic pass enabled at
// the daemon's default budget.
func newSemanticEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.SemanticBudget == 0 {
		opts.SemanticBudget = 50000
	}
	return New(opts)
}

// TestSemanticUnsatAllFrontEnds proves the unsat short-circuit in every
// front end: a provably unsatisfiable query compiles to the constant-
// empty program, carries the "unsat" verdict, and validates false.
func TestSemanticUnsatAllFrontEnds(t *testing.T) {
	cases := []struct {
		lang Language
		src  string
	}{
		{LangJNL, `([/k0] && !([/k0]))`},
		{LangJSL, `(string && number)`},
		{LangMongoFind, `{"$and":[{"k0":{"$gt":5}},{"k0":{"$lt":3}}]}`},
		{LangJSONPath, `$[?(@.k0 < 0)]`},
	}
	tree, err := jsontree.Parse(`{"k0": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.lang.String(), func(t *testing.T) {
			e := newSemanticEngine(t, Options{})
			p, err := e.Compile(tc.lang, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Unsatisfiable() {
				t.Fatalf("Unsatisfiable() = false for %q", tc.src)
			}
			if v := p.SemanticVerdict(); v != VerdictUnsat {
				t.Fatalf("verdict = %q, want %q", v, VerdictUnsat)
			}
			ok, err := e.Validate(p, tree)
			if err != nil || ok {
				t.Fatalf("Validate = %v, %v; want false, nil", ok, err)
			}
			if ex := p.Explain(); !strings.Contains(ex.Physical, "const_empty") {
				t.Fatalf("physical plan not constant-empty:\n%s", ex.Physical)
			}
			if ex := p.Explain(); ex.Semantic == nil || ex.Semantic.Verdict != VerdictUnsat {
				t.Fatalf("explain semantic section missing or wrong: %+v", ex.Semantic)
			}
		})
	}
}

// TestSemanticSatVerdict pins that ordinary satisfiable queries keep
// their real program and get the "sat" verdict.
func TestSemanticSatVerdict(t *testing.T) {
	e := newSemanticEngine(t, Options{})
	p, err := e.Compile(LangJNL, `[/k0]`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Unsatisfiable() {
		t.Fatal("satisfiable query marked unsat")
	}
	if v := p.SemanticVerdict(); v != VerdictSat {
		t.Fatalf("verdict = %q, want %q", v, VerdictSat)
	}
	tree, err := jsontree.Parse(`{"k0": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.Validate(p, tree)
	if err != nil || !ok {
		t.Fatalf("Validate = %v, %v; want true, nil", ok, err)
	}
}

// TestSemanticDisabledByDefault pins that Options' zero value leaves
// the pass off: no verdict, no analysis, full compatibility with
// engines built before the pass existed.
func TestSemanticDisabledByDefault(t *testing.T) {
	e := New(Options{})
	p, err := e.Compile(LangJSL, `(string && number)`)
	if err != nil {
		t.Fatal(err)
	}
	if p.SemanticVerdict() != "" {
		t.Fatalf("verdict = %q with the pass disabled, want \"\"", p.SemanticVerdict())
	}
	if p.Unsatisfiable() {
		t.Fatal("plan marked unsat with the pass disabled")
	}
	cs := e.CacheStats()
	if cs.SemanticChecks != 0 {
		t.Fatalf("SemanticChecks = %d with the pass disabled", cs.SemanticChecks)
	}
}

// TestSemanticAliasEquivalentPlans proves containment-based dedup: a
// query provably equivalent to a resident plan is served that resident
// plan under its own cache key, counted as an alias.
func TestSemanticAliasEquivalentPlans(t *testing.T) {
	e := newSemanticEngine(t, Options{})
	p1, err := e.Compile(LangJNL, `([/k0] && [/k1])`)
	if err != nil {
		t.Fatal(err)
	}
	// Same predicate, conjuncts flipped: equivalent but a distinct key.
	p2, err := e.Compile(LangJNL, `([/k1] && [/k0])`)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("equivalent queries got distinct plans; dedup did not alias")
	}
	cs := e.CacheStats()
	if cs.SemanticAliases != 1 {
		t.Fatalf("SemanticAliases = %d, want 1", cs.SemanticAliases)
	}
	// The alias must answer under both keys from the cache now.
	p3, err := e.Compile(LangJNL, `([/k1] && [/k0])`)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("alias not served from the cache on re-compile")
	}
}

// TestSemanticAliasExcludesJSONPath pins the soundness carve-out:
// JSONPath plans select path-reached nodes, a property boolean
// equivalence does not preserve, so they never alias.
func TestSemanticAliasExcludesJSONPath(t *testing.T) {
	e := newSemanticEngine(t, Options{})
	p1, err := e.Compile(LangJSONPath, `$.k0`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Compile(LangJNL, `[/k0]`)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("JSONPath plan aliased to a JNL plan")
	}
	if cs := e.CacheStats(); cs.SemanticAliases != 0 {
		t.Fatalf("SemanticAliases = %d, want 0", cs.SemanticAliases)
	}
}

// TestSemanticBorrowFacts proves fact borrowing under strict
// containment: P ⊑ Q strictly lets P inherit Q's find facts, visible in
// the explanation with provenance.
func TestSemanticBorrowFacts(t *testing.T) {
	e := newSemanticEngine(t, Options{})
	// Q: documents with /k0; P: documents with /k0 and /k1 — P ⊑ Q
	// strictly. Compile Q first so it is resident when P misses.
	if _, err := e.Compile(LangJNL, `([/k0/a] && [/k0/b])`); err != nil {
		t.Fatal(err)
	}
	p, err := e.Compile(LangJNL, `(([/k0/a] && [/k0/b]) && [/k1])`)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	if ex.Semantic == nil {
		t.Fatal("no semantic section in explanation")
	}
	// P's own facts already include /k0/a, /k0/b and /k1, so borrowing
	// may add nothing new here; the property to pin is just soundness:
	// borrowed facts, if any, must come from the resident source.
	if len(ex.Semantic.BorrowedFacts) > 0 && ex.Semantic.BorrowedFrom == "" {
		t.Fatal("borrowed facts without provenance")
	}
	if got := e.CacheStats().SemanticBorrowed; got != uint64(len(ex.Semantic.BorrowedFacts)) {
		t.Fatalf("SemanticBorrowed = %d, explanation lists %d", got, len(ex.Semantic.BorrowedFacts))
	}
}

// tenantQuery is the tenant find of the benchmark's query-cold pass,
// "meta.tenant = t<x>", in mongo, JNL or JSL by x mod 3.
func tenantQuery(x int) (Language, string) {
	switch x % 3 {
	case 0:
		return LangMongoFind, fmt.Sprintf(`{"meta.tenant":"t%d"}`, x)
	case 1:
		return LangJNL, fmt.Sprintf(`eq(/meta/tenant, "t%d")`, x)
	}
	return LangJSL, fmt.Sprintf(`some("meta", some("tenant", eq("t%d")))`, x)
}

// compileMissAllocs returns the allocations of one Compile of a text
// e has not cached, with GC pinned off.
func compileMissAllocs(t *testing.T, e *Engine, lang Language, src string) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := e.Compile(lang, src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestSemanticDedupDisjointAllocsBounded: a plan-cache miss with a
// full dedup window of other tenants' plans resident costs about what
// a miss on an empty cache does. Their find facts contradict the new
// plan's (another tenant value at /meta/tenant), so the scan skips
// every containment proof instead of running and failing one per
// candidate — and still aliases nothing.
func TestSemanticDedupDisjointAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	var empty, resident uint64
	for x := 100; x < 106; x++ {
		lang, src := tenantQuery(x)
		empty += compileMissAllocs(t, newSemanticEngine(t, Options{}), lang, src)
		e := newSemanticEngine(t, Options{})
		for y := 0; y < semanticDedupScan; y++ {
			if _, err := e.Compile(tenantQuery(y)); err != nil {
				t.Fatal(err)
			}
		}
		resident += compileMissAllocs(t, e, lang, src)
		if cs := e.CacheStats(); cs.SemanticAliases != 0 || cs.SemanticBorrowed != 0 {
			t.Fatalf("%s: aliased %d, borrowed %d facts from another tenant's plan", src, cs.SemanticAliases, cs.SemanticBorrowed)
		}
	}
	if float64(resident) > 1.5*float64(empty) {
		t.Fatalf("a miss with %d disjoint plans resident allocates %d, on an empty cache %d: want ≤ 1.5×",
			semanticDedupScan, resident, empty)
	}
}

// TestSemanticDedupSpan: a traced plan-cache miss records the dedup
// scan as its own child of the compile span, beside the semantic span,
// with the resident plans scanned, the proofs run and the outcome.
func TestSemanticDedupSpan(t *testing.T) {
	cases := []struct {
		name, resident, miss string
		proofs               int64
		outcome              string
	}{
		// Equivalent: both containment proofs run and succeed.
		{"alias", `([/k0] && [/k1])`, `([/k1] && [/k0])`, 2, "alias"},
		// Another tenant: the find facts contradict, so no proof runs.
		{"disjoint", `eq(/meta/tenant, "t1")`, `eq(/meta/tenant, "t2")`, 0, "none"},
	}
	for _, c := range cases {
		e := newSemanticEngine(t, Options{})
		if _, err := e.Compile(LangJNL, c.resident); err != nil {
			t.Fatal(err)
		}
		tr := trace.NewTrace("test")
		if _, err := e.CompileTraced(LangJNL, c.miss, tr); err != nil {
			t.Fatal(err)
		}
		var compile *trace.SpanOut
		for _, sp := range tr.Spans()[0].Children {
			if sp.Name == "compile" {
				compile = sp
			}
		}
		if compile == nil {
			t.Fatalf("%s: no compile span", c.name)
		}
		var stages []string
		var dedup *trace.SpanOut
		for _, sp := range compile.Children {
			stages = append(stages, sp.Name)
			if sp.Name == "dedup" {
				dedup = sp
			}
		}
		if dedup == nil || stages[len(stages)-1] != "dedup" || !slices.Contains(stages, "semantic") {
			t.Fatalf("%s: compile stages %v, want semantic then dedup", c.name, stages)
		}
		want := map[string]any{"scanned": int64(1), "proofs": c.proofs, "outcome": c.outcome}
		for k, v := range want {
			if dedup.Attrs[k] != v {
				t.Errorf("%s: dedup %s = %v, want %v", c.name, k, dedup.Attrs[k], v)
			}
		}
	}
}

// TestDisjointFacts pins the contradiction rule of the dedup skip: only
// facts on an identical path whose values, classes, or value kind and
// class disagree make two plans disjoint.
func TestDisjointFacts(t *testing.T) {
	at := func(keys ...string) []jsontree.Step {
		var steps []jsontree.Step
		for _, k := range keys {
			steps = append(steps, jsontree.Key(k))
		}
		return steps
	}
	val := func(v *jsonval.Value, keys ...string) jsontree.PathFact {
		return jsontree.PathFact{Steps: at(keys...), Value: v}
	}
	class := func(k jsontree.Kind, keys ...string) jsontree.PathFact {
		return jsontree.PathFact{Steps: at(keys...), HasClass: true, Class: k}
	}
	exists := jsontree.PathFact{Steps: at("a")}
	for _, c := range []struct {
		p, q jsontree.PathFact
		want bool
	}{
		{val(jsonval.Str("t1"), "a"), val(jsonval.Str("t2"), "a"), true},
		{val(jsonval.Str("t1"), "a"), val(jsonval.Str("t1"), "a"), false},
		{val(jsonval.Str("t1"), "a"), val(jsonval.Str("t2"), "b"), false},
		{val(jsonval.Str("t1"), "a", "b"), val(jsonval.Str("t2"), "a"), false},
		{val(jsonval.Num(1), "a"), class(jsontree.StringNode, "a"), true},
		{val(jsonval.Num(1), "a"), class(jsontree.NumberNode, "a"), false},
		{class(jsontree.ObjectNode, "a"), class(jsontree.ArrayNode, "a"), true},
		{exists, val(jsonval.Num(1), "a"), false},
	} {
		for _, pq := range [][2]jsontree.PathFact{{c.p, c.q}, {c.q, c.p}} {
			if got := disjointFacts(pq[:1], pq[1:]); got != c.want {
				t.Errorf("disjointFacts(%s, %s) = %v, want %v", pq[0], pq[1], got, c.want)
			}
		}
	}
}

// mustSchema compiles a schema literal for the tests below.
func mustSchema(t *testing.T, src string) *SchemaInfo {
	t.Helper()
	s, err := schema.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := CompileSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestSemanticSchemaUnsat proves the schema-conjunction test: a query
// no conforming document can match is flagged schema-unsatisfiable
// (but not absolutely unsatisfiable — a lawless store must still
// evaluate it).
func TestSemanticSchemaUnsat(t *testing.T) {
	info := mustSchema(t, `{"type": "object", "required": ["k0"]}`)
	e := newSemanticEngine(t, Options{Schema: info})
	p, err := e.Compile(LangJSL, `string`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SchemaUnsatisfiable() {
		t.Fatal("SchemaUnsatisfiable() = false for a root-string query under an object-only schema")
	}
	if p.Unsatisfiable() {
		t.Fatal("schema-unsat query wrongly marked absolutely unsat")
	}
	if v := p.SemanticVerdict(); v != VerdictSchemaUnsat {
		t.Fatalf("verdict = %q, want %q", v, VerdictSchemaUnsat)
	}
	// The program must still be the real one: a store without the
	// schema evaluates it normally.
	tree, err := jsontree.Parse(`"hello"`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.Validate(p, tree)
	if err != nil || !ok {
		t.Fatalf("Validate on a nonconforming doc = %v, %v; want true, nil", ok, err)
	}
}

// TestSemanticSchemaPrune proves term pruning: a fact the schema
// guarantees for every conforming document is marked universal.
func TestSemanticSchemaPrune(t *testing.T) {
	info := mustSchema(t, `{"type": "object", "required": ["k0"]}`)
	e := newSemanticEngine(t, Options{Schema: info})
	// Both facts are find facts; the schema proves /k0 universal but
	// says nothing about /k1.
	p, err := e.Compile(LangJNL, `([/k0] && [/k1])`)
	if err != nil {
		t.Fatal(err)
	}
	pruned := p.SchemaPruned()
	var prunedK0 bool
	for fact := range pruned {
		if strings.Contains(fact, "k1") {
			t.Fatalf("pruned %q: the schema says nothing about k1", fact)
		}
		if strings.Contains(fact, "k0") {
			prunedK0 = true
		}
	}
	// The root "is an object" fact may be pruned too (the schema proves
	// it); /k0 must be, /k1 must not be.
	if !prunedK0 {
		t.Fatalf("SchemaPruned = %v, missing the /k0 fact", pruned)
	}
	if got := e.CacheStats().SchemaPrunedFacts; got != uint64(len(pruned)) {
		t.Fatalf("SchemaPrunedFacts = %d, plan lists %d", got, len(pruned))
	}
}

// TestSemanticBudgetExhaustion pins the failure mode: a budget too
// small to decide downgrades the verdict to "unknown" and leaves the
// plan fully functional — never an error, never a guess.
func TestSemanticBudgetExhaustion(t *testing.T) {
	e := newSemanticEngine(t, Options{SemanticBudget: 1})
	p, err := e.Compile(LangJSL, `(string && number)`)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.SemanticVerdict(); v != VerdictUnknown {
		t.Fatalf("verdict = %q under a 1-step budget, want %q", v, VerdictUnknown)
	}
	if p.Unsatisfiable() {
		t.Fatal("undecided plan marked unsat")
	}
	if got := e.CacheStats().SemanticUnknown; got != 1 {
		t.Fatalf("SemanticUnknown = %d, want 1", got)
	}
	tree, err := jsontree.Parse(`{"k0": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Validate(p, tree); err != nil || ok {
		t.Fatalf("Validate = %v, %v; want false, nil", ok, err)
	}
}

// TestCompileSemanticCacheHitZeroAllocs pins the tentpole's hard
// constraint: the semantic pass runs on cache misses only, so the
// untraced cache-hit compile+validate path stays allocation-free even
// with the pass enabled.
func TestCompileSemanticCacheHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	e := newSemanticEngine(t, Options{})
	src := `{"k": {"$gt": 1}}`
	if _, err := e.Compile(LangMongoFind, src); err != nil {
		t.Fatal(err)
	}
	tree, err := jsontree.Parse(`{"k": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	n := measureAllocs(func() {
		p, err := e.CompileTraced(LangMongoFind, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := e.Validate(p, tree)
		if err != nil || !ok {
			t.Fatalf("validate: %v %v", ok, err)
		}
	})
	if n != 0 {
		t.Fatalf("semantic-enabled cache-hit compile+validate allocates: %v allocs/op, want 0", n)
	}
}
