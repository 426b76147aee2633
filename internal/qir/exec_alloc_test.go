package qir

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
)

// Allocation-regression tests for the pooled executor: once a program's
// state pool is warm, Match and buffer-reusing EvalAppend must not
// allocate at all — with no context and with context.Background(),
// the configuration the daemon's query path actually runs. GC is
// disabled for the measurement so sync.Pool cannot be drained mid-run
// (a pool drop is a re-warm, not a leak, but it would make the
// assertion flaky).

// allocProbeQuery exercises every pooled structure at once: a closure
// (memo table + visited scratch on the enum side), a named recursive
// definition (second memo table), a regex predicate (regex memo) and a
// uniqueness predicate (unique memo).
func allocProbeQuery() *Query {
	return &Query{
		Defs: []Def{{Name: "X", Body: Or{
			Left:  StrMatch{Re: relang.MustCompile("v[0-9]*")},
			Right: Exists{Path: KeyRe{Re: relang.MustCompile(".*")}, Inner: Ref{Name: "X"}},
		}}},
		Pred: And{
			Left: Exists{Path: Closure{Inner: Union{Alts: []Path{
				Key{Word: "a"}, Key{Word: "b"}, Slice{Lo: 0, Hi: Inf},
			}}}, Inner: Ref{Name: "X"}},
			Right: Not{Inner: Exists{Path: Key{Word: "zs"}, Inner: Not{Inner: Unique{}}}},
		},
	}
}

func allocProbeTree() *jsontree.Tree {
	doc := `{"a":{"b":{"deep":["v1","v2",{"a":"v3"}]}},"b":[{"a":"v9"},"w"],"zs":[1,2,3]}`
	return jsontree.MustParse(doc)
}

// measureAllocs is testing.AllocsPerRun with the GC pinned off, so the
// program pool cannot be emptied between iterations.
func measureAllocs(t *testing.T, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the pool and every lazily sized memo outside the measurement
	return testing.AllocsPerRun(200, f)
}

// allocCtxs are the contexts the zero-allocation pins run under.
var allocCtxs = []struct {
	name string
	ctx  context.Context
}{{"nil", nil}, {"background", context.Background()}}

func TestMatchZeroAllocs(t *testing.T) {
	p := MustCompile(allocProbeQuery())
	tree := allocProbeTree()
	want := p.Match(tree)
	for _, c := range allocCtxs {
		if got := measureAllocs(t, func() {
			if ok, err := p.MatchCtx(c.ctx, tree); ok != want || err != nil {
				t.Fatalf("verdict changed between runs: %v, %v", ok, err)
			}
		}); got != 0 {
			t.Fatalf("steady-state MatchCtx(%s) allocates %v objects/op, want 0", c.name, got)
		}
	}
}

func TestEvalAppendZeroAllocs(t *testing.T) {
	p := MustCompile(allocProbeQuery())
	tree := allocProbeTree()
	want := len(p.Eval(tree))
	buf := make([]jsontree.NodeID, 0, tree.Len())
	for _, c := range allocCtxs {
		if got := measureAllocs(t, func() {
			var err error
			if buf, err = p.EvalAppendCtx(c.ctx, tree, buf[:0]); len(buf) != want || err != nil {
				t.Fatalf("selection changed: %d nodes, %v; want %d", len(buf), err, want)
			}
		}); got != 0 {
			t.Fatalf("steady-state EvalAppendCtx(%s) allocates %v objects/op, want 0", c.name, got)
		}
	}
}

// TestEvalAppendSelectionAllocsBounded covers the selection-path
// variant (Sel != nil). Lazy successor enumeration passes yield
// closures down the operator chain, so a selection walk allocates one
// closure cell per enumerated step — O(visited nodes), with the former
// per-node maps (closure visited sets, uniqueness buckets, memo maps)
// all pooled away. The test pins that bound: for the probe tree
// (~16 nodes) a descendant-axis selection must stay in the tens of
// objects, not hundreds (the pre-pooling executor allocated a map per
// closure entry plus a fresh state per call).
func TestEvalAppendSelectionAllocsBounded(t *testing.T) {
	q := &Query{
		Pred: True{},
		Sel: SeqOf(Closure{Inner: Union{Alts: []Path{
			KeyRe{Re: relang.MustCompile(".*")}, Slice{Lo: 0, Hi: Inf},
		}}}, Filter{Cond: KindIs{Kind: KindString}}),
	}
	p := MustCompile(q)
	tree := allocProbeTree()
	want := len(p.Eval(tree))
	if want == 0 {
		t.Fatal("probe selection must select something")
	}
	buf := make([]jsontree.NodeID, 0, tree.Len())
	got := measureAllocs(t, func() {
		buf = p.EvalAppend(tree, buf[:0])
		if len(buf) != want {
			t.Fatalf("selection size changed: %d, want %d", len(buf), want)
		}
	})
	if limit := float64(2 * tree.Len()); got > limit {
		t.Fatalf("steady-state selection EvalAppend allocates %v objects/op, want ≤ %v (one closure cell per enumerated step)", got, limit)
	}
}

// TestPooledStateConcurrent hammers one shared Program from many
// goroutines over differently sized trees: pooled states migrate
// between goroutines and tree sizes, and every verdict must match a
// fresh single-use evaluation. Run under -race this doubles as the
// executor's data-race check.
func TestPooledStateConcurrent(t *testing.T) {
	p := MustCompile(allocProbeQuery())
	trees := make([]*jsontree.Tree, 0, 16)
	want := make([]bool, 0, 16)
	for i := 0; i < 16; i++ {
		doc := `{"a":{"b":"v` + fmt.Sprint(i) + `"}`
		for j := 0; j < i; j++ {
			doc += `,"k` + fmt.Sprint(j) + `":[1,2,` + fmt.Sprint(j%3) + `]`
		}
		doc += `}`
		tree := jsontree.MustParse(doc)
		trees = append(trees, tree)
		want = append(want, MustCompile(allocProbeQuery()).Match(tree))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := []jsontree.NodeID(nil)
			for i := 0; i < 400; i++ {
				k := (g + i) % len(trees)
				if p.Match(trees[k]) != want[k] {
					t.Errorf("goroutine %d: verdict drifted on tree %d", g, k)
					return
				}
				buf = p.EvalAppend(trees[k], buf[:0])
			}
		}(g)
	}
	wg.Wait()
}

// TestVisitSetNesting pins the freelist requirement: enumerating a
// closure whose filter condition enumerates another closure must not
// share one visited set between the two walks.
func TestVisitSetNesting(t *testing.T) {
	// Outer: descend through any key, keeping nodes where some
	// descendant equals "hit"; inner closure re-walks the same subtree
	// while the outer enumeration is suspended mid-walk.
	inner := Exists{Path: Closure{Inner: KeyRe{Re: relang.MustCompile(".*")}},
		Inner: ValEq{Doc: jsonval.Str("hit")}}
	q := &Query{Pred: True{}, Sel: SeqOf(
		Closure{Inner: KeyRe{Re: relang.MustCompile(".*")}},
		Filter{Cond: inner},
	)}
	p := MustCompile(q)
	tree := jsontree.MustParse(`{"a":{"b":"hit"},"c":"miss"}`)
	got := p.Eval(tree)
	// Nodes with a descendant-or-self "hit": root (0), a (1), b (2).
	if !sameIDs(got, ids(0, 1, 2)) {
		t.Fatalf("nested closure enumeration = %v, want [0 1 2]", got)
	}
}
