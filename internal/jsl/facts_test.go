package jsl

import (
	"slices"
	"testing"

	"jsonlogic/internal/qir"
)

// TestRequiredFacts checks the index facts the QIR derivation gives
// for lowered JSL formulas: existential navigation and node tests yield
// facts, universal, negated and disjunctive formulas yield none.
func TestRequiredFacts(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{`some("a", some("b", number))`, []string{"$ kind=object", "/a kind=object", "/a/b kind=number"}},
		{`some("a", eq(5))`, []string{"$ kind=object", "/a value=5"}},
		{`some(~"k.*", true)`, []string{"$ kind=object"}},
		{`some([0:], string)`, []string{"$ kind=array", "/0"}},
		{`some([2:2], string)`, []string{"$ kind=array", "/2 kind=string"}},
		{`(string && pattern("s.*"))`, []string{"$ kind=string"}},
		{`all("a", number)`, nil},
		{`!some("a", true)`, nil},
		{`(some("a", true) || some("b", true))`, nil},
		{`(min(3) && max(9))`, []string{"$ kind=number"}},
		{`unique`, []string{"$ kind=array"}},
		{`eq({"a":[1,"x"]})`, []string{"$ kind=object", "/a kind=array", "/a/0 value=1", "/a/1 value=\"x\""}},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		facts := (&qir.Query{Pred: Lower(f)}).FindFacts()
		got := make([]string, len(facts))
		for i, fact := range facts {
			got[i] = fact.String()
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("facts of %q = %q, want %q", c.src, got, c.want)
		}
	}
}
