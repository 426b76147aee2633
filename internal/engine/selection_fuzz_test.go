package engine

import (
	"math/rand"
	"strings"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsonpath"
	"jsonlogic/internal/jsontree"
)

// FuzzSelectionAgrees fuzzes (document text, JSONPath source) pairs
// through the engine's set-at-a-time selection and the reference JNL
// evaluator behind jsonpath.SelectNodes: wherever both parse, the
// selected nodes must agree node for node. Seeds are generator
// queries over generator documents plus nested-descent paths over a
// deep chain, the shapes whose enumeration is easiest to get wrong
// (duplicates across closures, re-walked frontiers).
func FuzzSelectionAgrees(f *testing.F) {
	r := rand.New(rand.NewSource(505))
	for i := 0; i < 32; i++ {
		f.Add(gen.Document(r, diffDocOptions()).String(), gen.RandomJSONPathSource(r))
	}
	chain := strings.Repeat(`{"a":[{"b":1},`, 12) + `{"a":2}` + strings.Repeat("]}", 12)
	for _, src := range []string{`$..a..a..a`, `$..*..*..*`, `$..a[*]..b`, `$..a.a`, `$.a[*]..a..b`, `$..[0]..a`} {
		f.Add(chain, src)
	}
	e := New(Options{PlanCacheSize: 64})
	f.Fuzz(func(t *testing.T, doc, src string) {
		// Bound the work per input; the reference evaluator is the slow side.
		if len(doc) > 1<<12 || len(src) > 1<<8 {
			return
		}
		tr, err := jsontree.Parse(doc)
		if err != nil {
			return
		}
		jp, err := jsonpath.Compile(src)
		if err != nil {
			return
		}
		p, err := e.Compile(LangJSONPath, src)
		if err != nil {
			t.Fatalf("engine rejects %q, which jsonpath.Compile accepts: %v", src, err)
		}
		got, err := e.Eval(p, tr)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if want := jp.SelectNodes(tr); !sameNodes(got, want) {
			t.Fatalf("engine disagrees with reference on %q\ntree: %s\nengine:    %v\nreference: %v", src, doc, got, want)
		}
	})
}
