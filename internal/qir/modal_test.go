package qir_test

import (
	"math/rand"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/qir"
)

// TestForAllIsDualOfExists pins the universal pipeline against the
// existential one: ∀π.φ ≡ ¬∃π.¬φ at every node, over random JNL paths,
// which lower to every path shape (keys, regexes, indices, slices,
// filters, sequences, unions and closures). No front end puts a union
// or a filter under ForAll, so this is what checks the all-of and
// implication operators the universal side compiles them to.
func TestForAllIsDualOfExists(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	docOpts := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 6, ArrayBias: 40, ValueRange: 4}
	inners := []qir.Node{
		qir.True{},
		qir.KindIs{Kind: qir.KindNumber},
		qir.NumGE{N: 2},
		qir.Exists{Path: qir.Key{Word: "k0"}, Inner: qir.True{}},
	}
	for i := 0; i < 600; i++ {
		src := gen.RandomJNLPathSource(r, 2)
		b, err := jnl.ParseBinary(src)
		if err != nil {
			t.Fatalf("generator bug: %q: %v", src, err)
		}
		path := jnl.LowerBinary(b)
		phi := inners[i%len(inners)]
		all := qir.MustCompile(&qir.Query{Pred: qir.ForAll{Path: path, Inner: phi}})
		dual := qir.MustCompile(&qir.Query{Pred: qir.Not{Inner: qir.Exists{Path: path, Inner: qir.Not{Inner: phi}}}})
		tr := jsontree.FromValue(gen.Document(r, docOpts))
		if got, want := all.Eval(tr), dual.Eval(tr); !equalNodes(got, want) {
			t.Fatalf("∀(%s).%s selects %v, ¬∃.¬ selects %v\ntree: %s", src, qir.String(phi), got, want, tr)
		}
	}
}
