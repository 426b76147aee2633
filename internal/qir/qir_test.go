package qir

import (
	"strings"
	"testing"
	"time"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
)

func mustEval(t *testing.T, q *Query, doc string) []jsontree.NodeID {
	t.Helper()
	return MustCompile(q).Eval(jsontree.MustParse(doc))
}

func mustMatch(t *testing.T, q *Query, doc string) bool {
	t.Helper()
	return MustCompile(q).Match(jsontree.MustParse(doc))
}

func ids(ns ...int) []jsontree.NodeID {
	out := make([]jsontree.NodeID, len(ns))
	for i, n := range ns {
		out[i] = jsontree.NodeID(n)
	}
	return out
}

func sameIDs(a, b []jsontree.NodeID) bool {
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

func TestExistsShortCircuitAndKinds(t *testing.T) {
	// {"a": {"b": 1}, "c": [10, 20]} — preorder ids: 0 root, 1 a-obj,
	// 2 b-num, 3 c-arr, 4 ten, 5 twenty.
	doc := `{"a":{"b":1},"c":[10,20]}`

	q := &Query{Pred: Exists{Path: SeqOf(Key{Word: "a"}, Key{Word: "b"}), Inner: NumGE{N: 1}}}
	if !mustMatch(t, q, doc) {
		t.Fatal("a.b >= 1 must hold at root")
	}
	if got := mustEval(t, q, doc); !sameIDs(got, ids(0)) {
		t.Fatalf("eval = %v, want [0]", got)
	}

	// Keyed navigation from an array yields nothing; positional
	// navigation from an object yields nothing.
	if mustMatch(t, &Query{Pred: Exists{Path: SeqOf(Key{Word: "c"}, Key{Word: "0"}), Inner: True{}}}, doc) {
		t.Fatal("keyed step must not traverse array edges")
	}
	if mustMatch(t, &Query{Pred: Exists{Path: At{Index: 0}, Inner: True{}}}, doc) {
		t.Fatal("positional step must not traverse object edges")
	}
	// Negative indices address from the end.
	if !mustMatch(t, &Query{Pred: Exists{Path: SeqOf(Key{Word: "c"}, At{Index: -1}), Inner: ValEq{Doc: jsonval.Num(20)}}}, doc) {
		t.Fatal("c[-1] == 20 must hold")
	}
}

func TestForAllVacuousAndCounterexample(t *testing.T) {
	doc := `{"xs":[1,2,3],"s":"hi"}`
	all3 := &Query{Pred: Exists{Path: Key{Word: "xs"},
		Inner: ForAll{Path: Slice{Lo: 0, Hi: Inf}, Inner: NumGE{N: 1}}}}
	if !mustMatch(t, all3, doc) {
		t.Fatal("all xs >= 1 must hold")
	}
	all4 := &Query{Pred: Exists{Path: Key{Word: "xs"},
		Inner: ForAll{Path: Slice{Lo: 0, Hi: Inf}, Inner: NumGE{N: 2}}}}
	if mustMatch(t, all4, doc) {
		t.Fatal("xs contains 1 < 2")
	}
	// ForAll over a keyed path on a leaf is vacuously true.
	vac := &Query{Pred: Exists{Path: Key{Word: "s"},
		Inner: ForAll{Path: Key{Word: "nope"}, Inner: Not{Inner: True{}}}}}
	if !mustMatch(t, vac, doc) {
		t.Fatal("box over absent edges must be vacuously true")
	}
}

func TestClosureMemoDegenerateLoops(t *testing.T) {
	doc := `{"a":{"a":{"b":1}}}`
	// (ε)* is the identity: [ (ε)* ⟨b exists⟩ ] at root is false, at
	// node 1 true — and the in-progress cut must not diverge.
	idStar := &Query{Pred: Exists{
		Path:  SeqOf(Closure{Inner: Here{}}, Filter{Cond: Exists{Path: Key{Word: "b"}, Inner: True{}}}),
		Inner: True{}}}
	if got := mustEval(t, idStar, doc); !sameIDs(got, ids(2)) {
		t.Fatalf("(ε)* filter eval = %v, want [2]", got)
	}
	// (filter)* with an always-true filter is also the identity.
	filtStar := &Query{Pred: Exists{
		Path:  SeqOf(Closure{Inner: Filter{Cond: True{}}}, Key{Word: "b"}),
		Inner: NumGE{N: 1}}}
	if got := mustEval(t, filtStar, doc); !sameIDs(got, ids(2)) {
		t.Fatalf("(⟨true⟩)* /b eval = %v, want [2]", got)
	}
	// Descendant closure reaches the leaf from everywhere above it.
	desc := &Query{Pred: Exists{
		Path:  Closure{Inner: Union{Alts: []Path{KeyRe{Re: relang.MustCompile(".*")}, Slice{Lo: 0, Hi: Inf}}}},
		Inner: NumGE{N: 1}}}
	if got := mustEval(t, desc, doc); !sameIDs(got, ids(0, 1, 2, 3)) {
		t.Fatalf("descendant eval = %v, want [0 1 2 3]", got)
	}
}

func TestRecursiveDefsMemoized(t *testing.T) {
	// reach = b-leaf || some child reaches: the classic guarded
	// recursion, with an unguarded-but-acyclic ref layered on top.
	anyChild := Union{Alts: []Path{KeyRe{Re: relang.MustCompile(".*")}, Slice{Lo: 0, Hi: Inf}}}
	q := &Query{
		Defs: []Def{
			{Name: "reach", Body: Or{
				Left:  ValEq{Doc: jsonval.Num(7)},
				Right: Exists{Path: anyChild, Inner: Ref{Name: "reach"}},
			}},
			{Name: "top", Body: And{Left: KindIs{Kind: KindObject}, Right: Ref{Name: "reach"}}},
		},
		Pred: Ref{Name: "top"},
	}
	if !mustMatch(t, q, `{"a":[{"b":7}]}`) {
		t.Fatal("7 is reachable")
	}
	if mustMatch(t, q, `{"a":[{"b":8}]}`) {
		t.Fatal("7 is not reachable")
	}
	if mustMatch(t, q, `[7]`) {
		t.Fatal("top requires an object root")
	}
}

func TestCompileRejectsIllFormed(t *testing.T) {
	if _, err := Compile(&Query{Pred: Ref{Name: "ghost"}}); err == nil {
		t.Fatal("undefined reference must not compile")
	}
	cyc := &Query{
		Defs: []Def{
			{Name: "a", Body: Ref{Name: "b"}},
			{Name: "b", Body: Not{Inner: Ref{Name: "a"}}},
		},
		Pred: Ref{Name: "a"},
	}
	if _, err := Compile(cyc); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unguarded cycle must not compile, got %v", err)
	}
	dup := &Query{
		Defs: []Def{{Name: "a", Body: True{}}, {Name: "a", Body: True{}}},
		Pred: Ref{Name: "a"},
	}
	if _, err := Compile(dup); err == nil {
		t.Fatal("duplicate definition must not compile")
	}
	// Modal operators guard only through moving paths: ε, filters and
	// closures re-enter at the same node, so cycles through them must
	// be rejected at compile time, not panic at evaluation time.
	for name, path := range map[string]Path{
		"here":    Here{},
		"filter":  Filter{Cond: True{}},
		"closure": Closure{Inner: Key{Word: "a"}},
		"union":   Union{Alts: []Path{Key{Word: "a"}, Here{}}},
	} {
		q := &Query{
			Defs: []Def{{Name: "g", Body: Exists{Path: path, Inner: Ref{Name: "g"}}}},
			Pred: Ref{Name: "g"},
		}
		if _, err := Compile(q); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("%s-guarded cycle must not compile, got %v", name, err)
		}
	}
	// A ref inside a path filter condition evaluates at the current
	// node and is unguarded regardless of later moving steps.
	filterRef := &Query{
		Defs: []Def{{Name: "g", Body: Exists{
			Path:  Seq{Parts: []Path{Filter{Cond: Ref{Name: "g"}}, Key{Word: "a"}}},
			Inner: True{}}}},
		Pred: Ref{Name: "g"},
	}
	if _, err := Compile(filterRef); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("filter-condition cycle must not compile, got %v", err)
	}
	// An undefined ref inside a path filter condition must be a
	// compile error everywhere a path can appear — including EqPaths
	// sides and selection paths, which compile through the enumerator.
	for name, q := range map[string]*Query{
		"eqpaths": {Pred: EqPaths{Left: Filter{Cond: Ref{Name: "ghost"}}, Right: Here{}}},
		"select": {Pred: True{},
			Sel: Seq{Parts: []Path{Filter{Cond: Ref{Name: "ghost"}}, Key{Word: "a"}}}},
		"exists-path": {Pred: Exists{Path: Filter{Cond: Ref{Name: "ghost"}}, Inner: True{}}},
	} {
		if _, err := Compile(q); err == nil || !strings.Contains(err.Error(), "undefined") {
			t.Fatalf("%s: undefined filter ref must not compile, got %v", name, err)
		}
	}
	// Genuinely guarded recursion still compiles: every union arm and
	// the sequence as a whole move.
	guarded := &Query{
		Defs: []Def{{Name: "g", Body: Or{
			Left:  KindIs{Kind: KindNumber},
			Right: Exists{Path: Union{Alts: []Path{Key{Word: "a"}, At{Index: 0}}}, Inner: Ref{Name: "g"}},
		}}},
		Pred: Ref{Name: "g"},
	}
	if _, err := Compile(guarded); err != nil {
		t.Fatalf("moving-path guard must compile: %v", err)
	}
}

func TestSelectionEnumeratesSorted(t *testing.T) {
	doc := `{"a":[{"x":1},{"x":2}],"b":{"x":3}}`
	sel := SeqOf(
		Closure{Inner: Union{Alts: []Path{KeyRe{Re: relang.MustCompile(".*")}, Slice{Lo: 0, Hi: Inf}}}},
		Key{Word: "x"},
	)
	q := &Query{Pred: Exists{Path: sel, Inner: True{}}, Sel: sel}
	got := mustEval(t, q, doc)
	tr := jsontree.MustParse(doc)
	// All x values, in ascending node order, each exactly once.
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("selection = %v", got)
	}
	for i, n := range got {
		if i > 0 && got[i-1] >= n {
			t.Fatalf("selection not strictly ascending: %v", got)
		}
		if tr.NumberVal(n) != want[i] {
			t.Fatalf("selection values = %v", got)
		}
	}
}

func TestEqPathsStructuralNotHashOnly(t *testing.T) {
	q := &Query{Pred: EqPaths{Left: Key{Word: "l"}, Right: Key{Word: "r"}}}
	if !mustMatch(t, q, `{"l":{"k":[1,"x"]},"r":{"k":[1,"x"]}}`) {
		t.Fatal("equal subtrees must match")
	}
	if mustMatch(t, q, `{"l":{"k":[1,"x"]},"r":{"k":[1,"y"]}}`) {
		t.Fatal("unequal subtrees must not match")
	}
	if mustMatch(t, q, `{"l":1}`) {
		t.Fatal("a missing side must not match")
	}
}

func TestExplainRendering(t *testing.T) {
	q := &Query{
		Defs: []Def{{Name: "g", Body: Or{Left: KindIs{Kind: KindNumber}, Right: Exists{Path: KeyRe{Re: relang.MustCompile(".*")}, Inner: Ref{Name: "g"}}}}},
		Pred: Ref{Name: "g"},
	}
	logical := q.String()
	for _, want := range []string{"def g", "or", "kind=number", "exists /~\".*\"", "ref g", "match"} {
		if !strings.Contains(logical, want) {
			t.Fatalf("logical tree missing %q:\n%s", want, logical)
		}
	}
	physical := MustCompile(q).Describe()
	for _, want := range []string{"scan-nodes", "ref g [memo #0]"} {
		if !strings.Contains(physical, want) {
			t.Fatalf("physical tree missing %q:\n%s", want, physical)
		}
	}
	selQ := &Query{Pred: Exists{Path: Key{Word: "a"}, Inner: True{}}, Sel: Key{Word: "a"}}
	if d := MustCompile(selQ).Describe(); !strings.Contains(d, "enumerate /a") {
		t.Fatalf("selection physical tree missing enumerator:\n%s", d)
	}
}

func TestFactsDerivation(t *testing.T) {
	// exists /a/b with a numeric leaf: anchor class, presence collapse.
	q := &Query{Pred: Exists{
		Path:  SeqOf(Key{Word: "a"}, Key{Word: "b"}),
		Inner: NumGE{N: 3}}}
	got := factStrings(q.FindFacts())
	want := []string{"$ kind=object", "/a kind=object", "/a/b kind=number"}
	if !equalStrings(got, want) {
		t.Fatalf("facts = %v, want %v", got, want)
	}
	// Point slices stay complete; open slices degrade to the dense
	// lower bound.
	point := &Query{Pred: Exists{Path: SeqOf(Key{Word: "xs"}, Slice{Lo: 2, Hi: 2}), Inner: ValEq{Doc: jsonval.Num(9)}}}
	got = factStrings(point.FindFacts())
	want = []string{"$ kind=object", "/xs kind=array", "/xs/2 value=9"}
	if !equalStrings(got, want) {
		t.Fatalf("point-slice facts = %v, want %v", got, want)
	}
	open := &Query{Pred: Exists{Path: SeqOf(Key{Word: "xs"}, Slice{Lo: 2, Hi: 5}), Inner: ValEq{Doc: jsonval.Num(9)}}}
	got = factStrings(open.FindFacts())
	want = []string{"$ kind=object", "/xs kind=array", "/xs/2"}
	if !equalStrings(got, want) {
		t.Fatalf("open-slice facts = %v, want %v", got, want)
	}
	// A prefix ending in a kind-forcing stepless part (KeyRe) keeps the
	// class anchor and suppresses the redundant presence fact — the
	// class posting list is a subset of the presence list.
	regexTail := &Query{Pred: Exists{
		Path:  SeqOf(Key{Word: "a"}, KeyRe{Re: relang.MustCompile("x.*")}),
		Inner: True{}}}
	got = factStrings(regexTail.FindFacts())
	want = []string{"$ kind=object", "/a kind=object"}
	if !equalStrings(got, want) {
		t.Fatalf("regex-tail facts = %v, want %v", got, want)
	}
	// Negation and ForAll yield nothing.
	for _, barren := range []Node{
		Not{Inner: Exists{Path: Key{Word: "a"}, Inner: True{}}},
		ForAll{Path: Key{Word: "a"}, Inner: KindIs{Kind: KindNumber}},
		Or{Left: Exists{Path: Key{Word: "a"}, Inner: True{}}, Right: True{}},
	} {
		if facts := (&Query{Pred: barren}).FindFacts(); len(facts) != 0 {
			t.Fatalf("%s must yield no facts, got %v", String(barren), factStrings(facts))
		}
	}
}

func factStrings(facts []jsontree.PathFact) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	return out
}

func equalStrings(a, b []string) bool {
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

// TestUniversalKeyRegexIsWildcard pins the compile-time rewrite of key
// regexes accepting every key: .*, (.*)* and relang.Any() compile to
// the wildcard step and enumerator, k.*, k0|k1 and ∅ do not, and under
// the wildcard Match, Eval and Describe equal the regex-memo operator.
func TestUniversalKeyRegexIsWildcard(t *testing.T) {
	cases := []struct {
		re   *relang.Regex
		want bool
	}{
		{relang.MustCompile(".*"), true},
		{relang.MustCompile("(.*)*"), true},
		{relang.Any(), true},
		{relang.MustCompile("k.*"), false},
		{relang.MustCompile("k0|k1"), false},
		{relang.None(), false},
		{relang.MustCompile("(.*a.{24})?"), false},
	}
	tree := allocProbeTree()
	for _, c := range cases {
		step := KeyRe{Re: c.re}
		descend := Closure{Inner: step}
		queries := []*Query{
			{Pred: Exists{Path: descend, Inner: KindIs{Kind: KindString}}},
			{Pred: ForAll{Path: descend, Inner: Not{Inner: KindIs{Kind: KindNumber}}}},
			{Pred: True{}, Sel: descend},
		}
		for _, q := range queries {
			p, ref := MustCompile(q), MustCompile(q)
			if q.Sel != nil {
				if got := p.sel.(closureEnum).body[0].(keyReEnum).any; got != c.want {
					t.Fatalf("%s: wildcard enumerator = %v, want %v", c.re, got, c.want)
				}
				ref.sel = closureEnum{body: []enumOp{keyReEnum{re: c.re}}}
			} else {
				if got := p.pred.(*closureOp).step.(*keyReStepOp).any; got != c.want {
					t.Fatalf("%s: wildcard step = %v, want %v", c.re, got, c.want)
				}
				ref.pred.(*closureOp).step.(*keyReStepOp).any = false
			}
			if p.Match(tree) != ref.Match(tree) || !sameIDs(p.Eval(tree), ref.Eval(tree)) {
				t.Fatalf("%s: wildcard and regex-memo operators disagree on %s", c.re, q)
			}
			if p.Describe() != ref.Describe() {
				t.Fatalf("%s: Describe changed:\n%s\nvs\n%s", c.re, p.Describe(), ref.Describe())
			}
		}
	}
}

// TestKeyRegexCompileNeverDeterminizes pins that spotting the wildcard
// step costs no automaton construction: (.*a.{24})? accepts ε and its
// minimal DFA has about 2^25 states, yet a query over it compiles at
// once, keeps the regex-memo operator, and selects through the memo.
func TestKeyRegexCompileNeverDeterminizes(t *testing.T) {
	re := relang.MustCompile("(.*a.{24})?")
	long := "x" + "a" + strings.Repeat("y", 24)
	tree := jsontree.MustParse(`{"a":1,"` + long + `":2}`)
	start := time.Now()
	sel := MustCompile(&Query{Pred: True{}, Sel: Closure{Inner: KeyRe{Re: re}}})
	pred := MustCompile(&Query{Pred: Exists{Path: Closure{Inner: KeyRe{Re: re}}, Inner: KindIs{Kind: KindNumber}}})
	if d := time.Since(start); d > time.Second {
		t.Fatalf("compiling two queries over %s took %v", re, d)
	}
	if sel.sel.(closureEnum).body[0].(keyReEnum).any || pred.pred.(*closureOp).step.(*keyReStepOp).any {
		t.Fatalf("%s is not Σ* but compiled to the wildcard step", re)
	}
	st := sel.acquire(tree)
	got := sel.sel.apply(st, []jsontree.NodeID{tree.Root()}, nil)
	if len(st.regexMemo[re]) != 2 {
		t.Fatalf("regex memo holds %d verdicts for %s, want 2 (one per key)", len(st.regexMemo[re]), re)
	}
	sel.release(st)
	want := []jsontree.NodeID{tree.Root(), tree.ChildByKey(tree.Root(), long)}
	if !sameIDs(got, want) || !sameIDs(sel.Eval(tree), want) {
		t.Fatalf("selection = %v, want %v", got, want)
	}
	if !pred.Match(tree) {
		t.Fatalf("no number under a key in %s", re)
	}
}
