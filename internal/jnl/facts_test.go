package jnl

import (
	"slices"
	"testing"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/qir"
)

// findFacts renders the index facts the QIR derivation gives for a
// lowered JNL formula.
func findFacts(u Unary) []string {
	facts := (&qir.Query{Pred: Lower(u)}).FindFacts()
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	return out
}

// TestRequiredPrefix checks the facts a path test [α] yields: the
// longest deterministic prefix of α becomes path facts, and a step
// past a branching, repeated or ranged step yields none.
func TestRequiredPrefix(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{`/a /b`, []string{"$ kind=object", "/a kind=object", "/a/b"}},
		{`/a /2 /b`, []string{"$ kind=object", "/a kind=array", "/a/2 kind=object", "/a/2/b"}},
		{`eps /a eps`, []string{"$ kind=object", "/a"}},
		{`/a <true> /b`, []string{"$ kind=object", "/a kind=object", "/a/b"}},
		{`/a /[1:3] /b`, []string{"$ kind=object", "/a kind=array", "/a/1"}},
		{`/a /~"k.*" /b`, []string{"$ kind=object", "/a kind=object"}},
		{`/a (/b)* /c`, []string{"$ kind=object", "/a"}},
		{`/a (/b | /c)`, []string{"$ kind=object", "/a kind=object"}},
		{`/-1`, []string{"$ kind=array"}},
		{`eps`, nil},
	}
	for _, c := range cases {
		b, err := ParseBinary(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := findFacts(Exists{Path: b}); !slices.Equal(got, c.want) {
			t.Errorf("facts of [%s] = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestRequiredFactsNecessity spot-checks that the derived facts hold on
// a document satisfying the formula under JNL's own evaluator, and
// reject one that lacks the paths.
func TestRequiredFactsNecessity(t *testing.T) {
	u := MustParse(`(eq(/a/b, 7) && [/c /0])`)
	facts := (&qir.Query{Pred: Lower(u)}).FindFacts()
	want := []string{"$ kind=object", "/a kind=object", "/a/b value=7", "/c kind=array", "/c/0"}
	if got := findFacts(u); !slices.Equal(got, want) {
		t.Fatalf("facts = %q, want %q", got, want)
	}
	match := jsontree.MustParse(`{"a":{"b":7},"c":["x"]}`)
	if !NewEvaluator(match).Holds(u, match.Root()) {
		t.Fatal("fixture does not match")
	}
	for _, f := range facts {
		if !f.Holds(match) {
			t.Errorf("fact %s must hold on a matching tree", f)
		}
	}
	miss := jsontree.MustParse(`{"a":{"b":8}}`)
	holdsAll := true
	for _, f := range facts {
		if !f.Holds(miss) {
			holdsAll = false
		}
	}
	if holdsAll {
		t.Error("facts should prune the non-matching tree")
	}
}
