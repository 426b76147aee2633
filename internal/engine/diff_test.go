package engine

import (
	"math/rand"
	"strings"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsonpath"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/mongoq"
)

// The differential harness: engine results must be node-for-node
// identical to the reference evaluators (a fresh jnl.Evaluator or
// jsl.Evaluator per query) across ≥1000 randomized (tree, query) pairs
// per front end. The engine is shared across all pairs with a small
// cache, so the comparisons cover cached plans, evicted-and-recompiled
// plans and first compiles alike.

// diffPairs is the number of (tree, query) pairs per front end.
const diffPairs = 1050

// diffDocOptions keeps documents small enough that the quadratic
// EQ(α,β) fallback stays cheap while still mixing all four kinds.
func diffDocOptions() gen.DocOptions {
	return gen.DocOptions{Fanout: 3, Depth: 4, Keys: 12, ArrayBias: 40, ValueRange: 20}
}

// diffTrees yields a fresh random tree every `perTree` pairs.
type diffTrees struct {
	r       *rand.Rand
	perTree int
	count   int
	cur     *jsontree.Tree
}

func (d *diffTrees) next() *jsontree.Tree {
	if d.count%d.perTree == 0 {
		d.cur = jsontree.FromValue(gen.Document(d.r, diffDocOptions()))
	}
	d.count++
	return d.cur
}

func sameNodes(a, b []jsontree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDifferentialJNL(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	e := New(Options{PlanCacheSize: 64})
	trees := &diffTrees{r: r, perTree: 7}
	for i := 0; i < diffPairs; i++ {
		tr := trees.next()
		src := gen.RandomJNLSource(r, 3)
		u, err := jnl.Parse(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not parse: %v", src, err)
		}
		want := jnl.NewEvaluator(tr).Eval(u).Slice()

		p, err := e.Compile(LangJNL, src)
		if err != nil {
			t.Fatalf("engine rejects %q: %v", src, err)
		}
		got, err := e.Eval(p, tr)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if !sameNodes(got, want) {
			t.Fatalf("pair %d: engine disagrees with reference on %q\ntree: %s\nengine:    %v\nreference: %v",
				i, src, tr, got, want)
		}
		ok, err := e.Validate(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		wantRoot := jnl.NewEvaluator(tr).Holds(u, tr.Root())
		if ok != wantRoot {
			t.Fatalf("pair %d: Validate(%q) = %v, reference %v", i, src, ok, wantRoot)
		}
	}
	s := e.CacheStats()
	if s.Hits+s.Misses < diffPairs {
		t.Errorf("cache counters lost calls: %+v", s)
	}
	t.Logf("JNL: %d pairs, cache %+v", diffPairs, s)
}

func TestDifferentialJSL(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	e := New(Options{PlanCacheSize: 64})
	trees := &diffTrees{r: r, perTree: 7}
	for i := 0; i < diffPairs; i++ {
		tr := trees.next()
		// Every fourth query is recursive; the rest are plain formulas
		// routed through the same ParseRecursive front door the engine
		// uses.
		var src string
		if i%4 == 0 {
			src = gen.RandomRecursiveJSLSource(r, 2)
		} else {
			src = gen.RandomJSLSource(r, 3)
		}
		rec, err := jsl.ParseRecursive(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not parse: %v", src, err)
		}
		want, err := jsl.NewEvaluator(tr).EvalRecursive(rec)
		if err != nil {
			t.Fatalf("reference eval of %q: %v", src, err)
		}

		p, err := e.Compile(LangJSL, src)
		if err != nil {
			t.Fatalf("engine rejects %q: %v", src, err)
		}
		got, err := e.Eval(p, tr)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		var wantNodes []jsontree.NodeID
		for n, ok := range want {
			if ok {
				wantNodes = append(wantNodes, jsontree.NodeID(n))
			}
		}
		if !sameNodes(got, wantNodes) {
			t.Fatalf("pair %d: engine disagrees with reference on %q\ntree: %s\nengine:    %v\nreference: %v",
				i, src, tr, got, wantNodes)
		}
		ok, err := e.Validate(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want[tr.Root()] {
			t.Fatalf("pair %d: Validate(%q) = %v, reference %v", i, src, ok, want[tr.Root()])
		}
	}
	t.Logf("JSL: %d pairs, cache %+v", diffPairs, e.CacheStats())
}

func TestDifferentialJSONPath(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	e := New(Options{PlanCacheSize: 64})
	trees := &diffTrees{r: r, perTree: 7}
	for i := 0; i < diffPairs; i++ {
		tr := trees.next()
		src := gen.RandomJSONPathSource(r)
		jp, err := jsonpath.Compile(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not compile: %v", src, err)
		}
		want := jp.SelectNodes(tr)

		p, err := e.Compile(LangJSONPath, src)
		if err != nil {
			t.Fatalf("engine rejects %q: %v", src, err)
		}
		got, err := e.Eval(p, tr)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if !sameNodes(got, want) {
			t.Fatalf("pair %d: engine disagrees with reference on %q\ntree: %s\nengine:    %v\nreference: %v",
				i, src, tr, got, want)
		}
	}
	t.Logf("JSONPath: %d pairs, cache %+v", diffPairs, e.CacheStats())
}

func TestDifferentialMongo(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	e := New(Options{PlanCacheSize: 64})
	for i := 0; i < diffPairs; i++ {
		// Mongo filters match whole documents; draw a fresh document
		// every few pairs and keep both representations.
		doc := gen.Document(r, diffDocOptions())
		tr := jsontree.FromValue(doc)
		src := gen.RandomMongoSource(r, 2)
		f, err := mongoq.Parse(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not parse: %v", src, err)
		}
		want := f.Matches(doc)

		p, err := e.Compile(LangMongoFind, src)
		if err != nil {
			t.Fatalf("engine rejects %q: %v", src, err)
		}
		got, err := e.Validate(p, tr)
		if err != nil {
			t.Fatalf("Validate(%q): %v", src, err)
		}
		if got != want {
			t.Fatalf("pair %d: engine says %v, mongoq reference says %v for %q on %s", i, got, want, src, doc)
		}
		// Node-selection semantics: the root's membership must agree.
		nodes, err := e.Eval(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		rootIn := false
		for _, n := range nodes {
			if n == tr.Root() {
				rootIn = true
			}
		}
		if rootIn != want {
			t.Fatalf("pair %d: root selection %v disagrees with Matches %v for %q", i, rootIn, want, src)
		}
	}
	t.Logf("Mongo: %d pairs, cache %+v", diffPairs, e.CacheStats())
}

// TestDifferentialBatchAndNDJSON closes the loop on the batch path:
// EvalReader must agree with the reference evaluator per document.
func TestDifferentialBatchAndNDJSON(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	e := New(Options{})
	e.workers = 4
	src := `(eq(/k1, /k2) || [/~"k.*" /[0:2]])`
	p, err := e.Compile(LangJNL, src)
	if err != nil {
		t.Fatal(err)
	}
	u := jnl.MustParse(src)

	var ndjson strings.Builder
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = gen.Document(r, diffDocOptions()).String()
		ndjson.WriteString(docs[i] + "\n")
	}
	results, err := e.EvalReader(p, strings.NewReader(ndjson.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(docs) {
		t.Fatalf("NDJSON returned %d results, want %d", len(results), len(docs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("NDJSON doc %d: %v", i, res.Err)
		}
		// The NDJSON path builds its tree through jsontree.Parse; node
		// ids can differ from FromValue only if construction disagrees,
		// which the selection comparison below would expose.
		want := jnl.NewEvaluator(res.Tree).Eval(u).Slice()
		if !sameNodes(res.Nodes, want) {
			t.Fatalf("NDJSON doc %d disagrees with reference", i)
		}
		if res.Tree.String() != jsontree.MustParse(docs[i]).String() {
			t.Fatalf("NDJSON doc %d: tree %s does not match document %s", i, res.Tree, docs[i])
		}
	}
}

// FuzzPlanCache fuzzes the plan-cache key path: for any (language,
// source) pair, compiling twice must yield the identical shared plan,
// that plan must behave exactly like an uncached compile, and distinct
// languages must never alias. The corpus seeds one valid source per
// front end plus near-collisions.
func FuzzPlanCache(f *testing.F) {
	f.Add(uint8(0), `[/name/first]`)
	f.Add(uint8(1), `object && some("name", string)`)
	f.Add(uint8(2), `$.hobbies[*]`)
	f.Add(uint8(3), `{"age": {"$gt": 30}}`)
	f.Add(uint8(0), `true`)
	f.Add(uint8(1), `true`)
	f.Add(uint8(0), `eq(/a, 1)`)
	f.Add(uint8(1), `eq(1)`)
	f.Add(uint8(2), `$..k1[?(@.k2 == 3)]`)
	f.Add(uint8(3), `{"$and":[{"a":1},{"b":{"$exists":0}}]}`)

	tree := jsontree.MustParse(`{"name": {"first": "sue"}, "age": 34, "hobbies": ["x", "y"], "a": 1, "k1": {"k2": 3}}`)
	e := New(Options{PlanCacheSize: 128})

	f.Fuzz(func(t *testing.T, langByte uint8, src string) {
		lang := Language(langByte % 4)
		p1, err := e.Compile(lang, src)
		if err != nil {
			// Invalid source: a second compile must fail identically,
			// and nothing may have been cached for the key.
			if _, err2 := e.Compile(lang, src); err2 == nil {
				t.Fatalf("compile of %q failed then succeeded", src)
			}
			return
		}
		p2, err := e.Compile(lang, src)
		if err != nil {
			t.Fatalf("cached recompile of %q failed: %v", src, err)
		}
		if p1 != p2 {
			t.Fatalf("cache returned distinct plans for identical key (%v, %q)", lang, src)
		}
		if p1.Language() != lang || p1.Source() != src {
			t.Fatalf("plan identity mangled: (%v, %q) became (%v, %q)", lang, src, p1.Language(), p1.Source())
		}
		fresh, err := Compile(lang, src)
		if err != nil {
			t.Fatalf("uncached compile of %q failed after cached succeeded: %v", src, err)
		}
		gotCached, err1 := e.Eval(p1, tree)
		gotFresh, err2 := e.Eval(fresh, tree)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("cached/fresh eval errors diverge: %v vs %v", err1, err2)
		}
		if err1 == nil && !sameNodes(gotCached, gotFresh) {
			t.Fatalf("cached plan evaluates differently from fresh compile for %q: %v vs %v", src, gotCached, gotFresh)
		}
	})
}

// TestReferenceOracles pins the oracle API itself: for random queries
// across all four front ends, Plan.EvalReference/ValidateReference
// (the retained front-end evaluators) must agree node-for-node with
// the QIR executor behind Engine.Eval/Validate. The per-language
// differential tests above construct their references by hand; this
// one exercises the methods the store harness and benchmarks use.
func TestReferenceOracles(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	e := New(Options{PlanCacheSize: 128})
	type frontEnd struct {
		lang Language
		gen  func() string
	}
	fronts := []frontEnd{
		{LangJNL, func() string { return gen.RandomJNLSource(r, 3) }},
		{LangJSL, func() string {
			if r.Intn(4) == 0 {
				return gen.RandomRecursiveJSLSource(r, 2)
			}
			return gen.RandomJSLSource(r, 3)
		}},
		{LangJSONPath, func() string { return gen.RandomJSONPathSource(r) }},
		{LangMongoFind, func() string { return gen.RandomMongoSource(r, 2) }},
	}
	trees := &diffTrees{r: r, perTree: 5}
	for i := 0; i < 1200; i++ {
		tr := trees.next()
		fe := fronts[i%len(fronts)]
		src := fe.gen()
		p, err := e.Compile(fe.lang, src)
		if err != nil {
			t.Fatalf("generator bug: (%v, %q): %v", fe.lang, src, err)
		}
		got, err := e.Eval(p, tr)
		if err != nil {
			t.Fatalf("eval (%v, %q): %v", fe.lang, src, err)
		}
		want, err := p.EvalReference(tr)
		if err != nil {
			t.Fatalf("reference eval (%v, %q): %v", fe.lang, src, err)
		}
		if !sameNodes(got, want) {
			t.Fatalf("pair %d: QIR disagrees with oracle on (%v, %q)\ntree: %s\nqir:    %v\noracle: %v",
				i, fe.lang, src, tr, got, want)
		}
		gotV, err := e.Validate(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		wantV, err := p.ValidateReference(tr)
		if err != nil {
			t.Fatal(err)
		}
		if gotV != wantV {
			t.Fatalf("pair %d: Validate %v, oracle %v on (%v, %q)", i, gotV, wantV, fe.lang, src)
		}
	}
}
