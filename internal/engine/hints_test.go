package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

// factStrings renders facts for comparison.
func factStrings(facts []jsontree.PathFact) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	return out
}

func TestIndexFactExtraction(t *testing.T) {
	cases := []struct {
		lang Language
		src  string
		find []string // expected FindFacts, rendered; nil = scan
	}{
		// The QIR derivation anchors navigation: a keyed (positional)
		// first step forces the source to be an object (array), and a
		// class or value fact at a path subsumes its presence fact.
		{LangMongoFind, `{"user.name":"sue"}`, []string{"$ kind=object", "/user kind=object", "/user/name value=\"sue\""}},
		{LangMongoFind, `{"a.b":{"$gt":3}}`, []string{"$ kind=object", "/a kind=object", "/a/b kind=number"}},
		{LangMongoFind, `{"a":{"$type":"array"}}`, []string{"$ kind=object", "/a kind=array"}},
		{LangMongoFind, `{"a":{"$ne":1}}`, nil},
		{LangMongoFind, `{"a":{"$exists":0}}`, nil},
		{LangMongoFind, `{"$or":[{"a":1},{"b":2}]}`, nil},
		{LangMongoFind, `{"tags.0":"x"}`, []string{"$ kind=object", "/tags kind=array", "/tags/0 value=\"x\""}},
		{LangMongoFind, `{"a":{"x":1}}`, []string{"$ kind=object", "/a kind=object", "/a/x value=1"}},
		{LangJSONPath, `$.store.book[0].title`, []string{
			"$ kind=object", "/store kind=object", "/store/book kind=array",
			"/store/book/0 kind=object", "/store/book/0/title"}},
		{LangJSONPath, `$.store..price`, []string{"$ kind=object", "/store"}},
		{LangJSONPath, `$[2].a`, []string{"$ kind=array", "/2 kind=object", "/2/a"}},
		{LangJSONPath, `$.*`, nil},
		{LangJNL, `[/a/b]`, []string{"$ kind=object", "/a kind=object", "/a/b"}},
		{LangJNL, `eq(/a, 7)`, []string{"$ kind=object", "/a value=7"}},
		{LangJNL, `eq(/a, {"k":1})`, []string{"$ kind=object", "/a kind=object", "/a/k value=1"}},
		{LangJNL, `(eq(/a, 1) && [/b])`, []string{"$ kind=object", "/a value=1", "/b"}},
		{LangJNL, `!eq(/a, 1)`, nil},
		{LangJNL, `eq(/a, /b)`, []string{"$ kind=object", "/a", "/b"}},
		{LangJNL, `[/a /[1:3]]`, []string{"$ kind=object", "/a kind=array", "/a/1"}},
		{LangJNL, `[(/a)*]`, nil},
		{LangJNL, `[/a /2 /b]`, []string{"$ kind=object", "/a kind=array", "/a/2 kind=object", "/a/2/b"}},
		{LangJNL, `[eps /a eps]`, []string{"$ kind=object", "/a"}},
		{LangJNL, `[/a <true> /b]`, []string{"$ kind=object", "/a kind=object", "/a/b"}},
		{LangJNL, `[/a /[1:3] /b]`, []string{"$ kind=object", "/a kind=array", "/a/1"}},
		{LangJNL, `[/a /~"k.*" /b]`, []string{"$ kind=object", "/a kind=object"}},
		{LangJNL, `[/a (/b)* /c]`, []string{"$ kind=object", "/a"}},
		{LangJNL, `[/a (/b | /c)]`, []string{"$ kind=object", "/a kind=object"}},
		{LangJNL, `[/-1]`, []string{"$ kind=array"}},
		{LangJNL, `[eps]`, nil},
		{LangJNL, `eq(/a /[1:3], 7)`, []string{"$ kind=object", "/a kind=array", "/a/1"}},
		{LangJNL, `(eq(/a/b, 7) && [/c /0])`, []string{"$ kind=object", "/a kind=object", "/a/b value=7", "/c kind=array", "/c/0"}},
		{LangJSL, `some("a", number)`, []string{"$ kind=object", "/a kind=number"}},
		{LangJSL, `all("a", number)`, nil},
		{LangJSL, `def g = number || some("a", g) ; g`, nil},
		{LangJSL, `some("a", some("b", number))`, []string{"$ kind=object", "/a kind=object", "/a/b kind=number"}},
		{LangJSL, `some("a", eq(5))`, []string{"$ kind=object", "/a value=5"}},
		{LangJSL, `some(~"k.*", true)`, []string{"$ kind=object"}},
		{LangJSL, `some([0:], string)`, []string{"$ kind=array", "/0"}},
		{LangJSL, `some([2:2], string)`, []string{"$ kind=array", "/2 kind=string"}},
		{LangJSL, `(string && pattern("s.*"))`, []string{"$ kind=string"}},
		{LangJSL, `!some("a", true)`, nil},
		{LangJSL, `(some("a", true) || some("b", true))`, nil},
		{LangJSL, `(min(3) && max(9))`, []string{"$ kind=number"}},
		{LangJSL, `unique`, []string{"$ kind=array"}},
		{LangJSL, `eq({"a":[1,"x"]})`, []string{"$ kind=object", "/a kind=array", "/a/0 value=1", "/a/1 value=\"x\""}},
		{LangJSONPath, `$.store.book[0]`, []string{"$ kind=object", "/store kind=object", "/store/book kind=array", "/store/book/0"}},
		{LangJSONPath, `$.a[*]`, []string{"$ kind=object", "/a"}},
		{LangJSONPath, `$[1:3].k`, []string{"$ kind=array", "/1"}},
		{LangJSONPath, `$`, nil},
		{LangMongoFind, `{"user.name":"sue","age":{"$gte":21}}`, []string{
			"$ kind=object", "/user kind=object", "/user/name value=\"sue\"", "/age kind=number"}},
	}
	for _, c := range cases {
		p, err := Compile(c.lang, c.src)
		if err != nil {
			t.Fatalf("compile (%v, %q): %v", c.lang, c.src, err)
		}
		got := factStrings(p.FindFacts())
		if !slices.Equal(got, c.find) {
			t.Errorf("(%v, %q): FindFacts = %q, want %q", c.lang, c.src, got, c.find)
		}
		// JSONPath selection is root-anchored: a node is selected iff
		// the path matches, so both modes carry the same facts.
		if sel := factStrings(p.SelectFacts()); c.lang == LangJSONPath && !slices.Equal(sel, c.find) {
			t.Errorf("(%v, %q): SelectFacts = %q, want %q", c.lang, c.src, sel, c.find)
		}
	}
}

// TestSelectFactsAnchoring pins the semantics split: JSONPath selection
// is root-anchored so its facts serve both modes; JNL/JSL/mongo node
// selection is unanchored and must not claim select support.
func TestSelectFactsAnchoring(t *testing.T) {
	got := factStrings(MustCompile(LangJSONPath, `$.a.b[*]`).SelectFacts())
	want := []string{"$ kind=object", "/a kind=object", "/a/b"}
	if len(got) != len(want) {
		t.Errorf("JSONPath select facts = %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("JSONPath select facts[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	}
	for _, p := range []*Plan{
		MustCompile(LangJNL, `[/a]`),
		MustCompile(LangJSL, `some("a", true)`),
		MustCompile(LangMongoFind, `{"a":1}`),
	} {
		if facts := p.SelectFacts(); len(facts) != 0 {
			t.Errorf("(%v, %q): unanchored selection claims select facts %v",
				p.Language(), p.Source(), factStrings(facts))
		}
	}
}

// TestIndexFactSoundness is the property the whole index rests on:
// whenever a document matches a plan, every extracted find fact holds
// on it, and whenever Eval selects any node, every select fact holds.
// Violations would make the index drop true results.
func TestIndexFactSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	e := New(Options{PlanCacheSize: 128})
	docOpts := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 40, ValueRange: 20}
	type frontEnd struct {
		lang Language
		gen  func() string
	}
	fronts := []frontEnd{
		{LangJNL, func() string { return gen.RandomJNLSource(r, 3) }},
		{LangJSL, func() string { return gen.RandomJSLSource(r, 3) }},
		{LangJSONPath, func() string { return gen.RandomJSONPathSource(r) }},
		{LangMongoFind, func() string { return gen.RandomMongoSource(r, 2) }},
	}
	checked := 0
	for i := 0; i < 4000; i++ {
		tr := jsontree.FromValue(gen.Document(r, docOpts))
		fe := fronts[i%len(fronts)]
		src := fe.gen()
		p, err := e.Compile(fe.lang, src)
		if err != nil {
			t.Fatalf("generator bug: (%v, %q): %v", fe.lang, src, err)
		}
		ok, err := e.Validate(p, tr)
		if err != nil {
			t.Fatalf("validate (%v, %q): %v", fe.lang, src, err)
		}
		if ok {
			for _, f := range p.FindFacts() {
				checked++
				if !f.Holds(tr) {
					t.Fatalf("unsound find fact %s for (%v, %q)\nmatching tree: %s", f, fe.lang, src, tr)
				}
			}
		}
		nodes, err := e.Eval(p, tr)
		if err != nil {
			t.Fatalf("eval (%v, %q): %v", fe.lang, src, err)
		}
		if len(nodes) > 0 {
			for _, f := range p.SelectFacts() {
				checked++
				if !f.Holds(tr) {
					t.Fatalf("unsound select fact %s for (%v, %q)\ntree: %s", f, fe.lang, src, tr)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("property test never checked a fact; generators drifted")
	}
	t.Logf("checked %d fact obligations", checked)
}

// TestFindExactShapes pins which plans claim exact facts: conjunctions
// of existentials over key/index paths ending in kind tests or scalar
// equalities are exact; anything whose facts drop part of the
// condition is not.
func TestFindExactShapes(t *testing.T) {
	cases := []struct {
		lang  Language
		src   string
		exact bool
	}{
		{LangMongoFind, `{"meta.tenant":"t3"}`, true},
		{LangJNL, `eq(/meta/tenant, "t3")`, true},
		{LangJSL, `some("meta", some("tenant", eq("t3")))`, true},
		{LangMongoFind, `{"a":1,"b.c":"x"}`, true},
		{LangMongoFind, `{"a":{"$type":"array"}}`, true},
		{LangJSL, `some("a", string && some("b", number))`, true}, // contradictory facts, unsatisfiable predicate
		{LangJNL, `[/a/b]`, true},
		{LangJSONPath, `$.a.b`, true},
		{LangJSL, `object && some("a", number)`, true},
		{LangMongoFind, `{}`, false},                // exact, but no facts to probe
		{LangMongoFind, `{"a":{"x":1}}`, false},     // composite equality
		{LangMongoFind, `{"a.b":{"$gt":3}}`, false}, // numeric test
		{LangMongoFind, `{"tags.0":"x"}`, false},    // point slice
		{LangMongoFind, `{"a":{"$ne":1}}`, false},
		{LangMongoFind, `{"$or":[{"a":1},{"b":2}]}`, false},
		{LangJSL, `all("a", number)`, false},
		{LangJSL, `some(~"a.*", number)`, false},
		{LangJSONPath, `$..a`, false},
		{LangJSONPath, `$.a[*]`, false},
	}
	for _, c := range cases {
		p := MustCompile(c.lang, c.src)
		if got := p.FindExact(); got != c.exact {
			t.Errorf("(%v, %q): FindExact = %v, want %v (pred %v, facts %v)",
				c.lang, c.src, got, c.exact, p.Query().Pred, factStrings(p.FindFacts()))
		}
	}
}

// TestExactFactsEquivalence is the property exact finds rest on: for
// a plan claiming FindExact, Validate holds on a document exactly when
// every find fact does — on random plans from all four front ends and
// on the tenant shapes, over random documents.
func TestExactFactsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	e := New(Options{PlanCacheSize: 128})
	docOpts := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 40, ValueRange: 20}
	tenant := func() (Language, string) {
		v := fmt.Sprintf(`"k%d"`, r.Intn(12))
		if r.Intn(2) == 0 {
			v = fmt.Sprint(r.Intn(20))
		}
		k1, k2 := fmt.Sprintf("k%d", r.Intn(12)), fmt.Sprintf("k%d", r.Intn(12))
		switch r.Intn(3) {
		case 0:
			return LangMongoFind, fmt.Sprintf(`{"%s.%s":%s}`, k1, k2, v)
		case 1:
			return LangJNL, fmt.Sprintf(`eq(/%s/%s, %s)`, k1, k2, v)
		}
		return LangJSL, fmt.Sprintf(`some("%s", some("%s", eq(%s)))`, k1, k2, v)
	}
	sources := []func() (Language, string){
		func() (Language, string) { return LangJNL, gen.RandomJNLSource(r, 3) },
		func() (Language, string) { return LangJSL, gen.RandomJSLSource(r, 3) },
		func() (Language, string) { return LangJSONPath, gen.RandomJSONPathSource(r) },
		func() (Language, string) { return LangMongoFind, gen.RandomMongoSource(r, 2) },
		tenant,
	}
	exact, matched := 0, 0
	for i := 0; i < 6000; i++ {
		lang, src := sources[i%len(sources)]()
		p, err := e.Compile(lang, src)
		if err != nil {
			t.Fatalf("generator bug: (%v, %q): %v", lang, src, err)
		}
		if !p.FindExact() {
			continue
		}
		exact++
		for j := 0; j < 4; j++ {
			tr := jsontree.FromValue(gen.Document(r, docOpts))
			ok, err := e.Validate(p, tr)
			if err != nil {
				t.Fatalf("validate (%v, %q): %v", lang, src, err)
			}
			all := true
			for _, f := range p.FindFacts() {
				all = all && f.Holds(tr)
			}
			if ok != all {
				t.Fatalf("(%v, %q) claims exact facts %v, but Validate = %v while the facts hold = %v\ntree: %s",
					lang, src, factStrings(p.FindFacts()), ok, all, tr)
			}
			if ok {
				matched++
			}
		}
	}
	if exact < 1000 || matched == 0 {
		t.Fatalf("only %d exact plans (%d matches); generators drifted", exact, matched)
	}
	t.Logf("%d exact plans, %d matching (plan, document) pairs", exact, matched)
}
