package qir_test

import (
	"context"
	"strings"
	"testing"

	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/qir"
)

// pollBudget is a context whose Err reports cancellation once it has
// been polled more than left times: a work bound expressed in the
// executor's own checkpoints (one poll per cancelCheckEvery of them).
type pollBudget struct {
	context.Context
	left int
}

func (c *pollBudget) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// cancelCheckEvery mirrors the executor's poll interval.
const cancelCheckEvery = 1024

// linearBudget allows ⌈8·(k+1)·|J| / cancelCheckEvery⌉ polls: room
// for eight checkpoints per node per closure, far below the |J|^k
// visits of an enumerator that re-walks the rest of the path for each
// node an earlier closure reaches.
func linearBudget(k, nodes int) *pollBudget {
	return &pollBudget{Context: context.Background(), left: (8*(k+1)*nodes + cancelCheckEvery - 1) / cancelCheckEvery}
}

// stars is (/a)* repeated k times, as a JNL path.
func stars(k int) jnl.Binary {
	var b jnl.Binary = jnl.Star{Inner: jnl.KeyAxis{Word: "a"}}
	for i := 1; i < k; i++ {
		b = jnl.Concat{Left: b, Right: jnl.Star{Inner: jnl.KeyAxis{Word: "a"}}}
	}
	return b
}

// TestNestedClosureSelectionLinear pins selection and EQ(α,β) over k
// closures in sequence to O(k·|J|) work on a 1 000-deep chain
// {"a":{"a":…}}, where every closure reaches every node below its
// start: an executor that re-runs the rest of the path for each node a
// closure yields does |J|^k work here and exhausts the poll budget.
// Results must equal the reference JNL evaluator's.
func TestNestedClosureSelectionLinear(t *testing.T) {
	const depth = 1000
	tree := jsontree.MustParse(strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth))
	ev := jnl.NewEvaluator(tree)
	for k := 1; k <= 4; k++ {
		path := stars(k)
		p := qir.MustCompile(&qir.Query{Pred: qir.True{}, Sel: jnl.LowerBinary(path)})
		got, err := p.EvalAppendCtx(linearBudget(k, tree.Len()), tree, nil)
		if err != nil {
			t.Fatalf("k=%d: selection exceeded the linear poll budget: %v", k, err)
		}
		if want := ev.Select(path, tree.Root()); !equalNodes(got, want) {
			t.Fatalf("k=%d: selected %d nodes, reference %d", k, len(got), len(want))
		}
	}
	// EQ over two starred paths: the leaf is reachable on both sides,
	// the left through two closures in sequence.
	leaf := jnl.Concat{Left: stars(1), Right: jnl.Test{Inner: jnl.Not{Inner: jnl.Exists{Path: jnl.KeyAxis{Word: "a"}}}}}
	eq := jnl.EQPaths{Left: stars(2), Right: leaf}
	p := qir.MustCompile(&qir.Query{Pred: jnl.Lower(eq)})
	got, err := p.MatchCtx(linearBudget(2, tree.Len()), tree)
	if err != nil {
		t.Fatalf("EQ exceeded the linear poll budget: %v", err)
	}
	if want := ev.Holds(eq, tree.Root()); got != want || !got {
		t.Fatalf("EQ at the root = %v, reference %v (want true)", got, want)
	}
}

func equalNodes(a, b []jsontree.NodeID) bool {
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
