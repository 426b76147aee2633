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

// anyChild is JSONPath's wildcard step, [*]: any member or element.
func anyChild() Path {
	return Union{Alts: []Path{KeyRe{Re: relang.Any()}, Slice{Lo: 0, Hi: Inf}}}
}

// TestEvalAppendSelectionZeroAllocs covers the selection-path variant
// (Sel != nil): the set-at-a-time enumerators pass node sets in pooled
// buffers and deduplicate through pooled visit sets, so once warm a
// selection allocates nothing — for a closure followed by a filter, a
// sequence after a closure, a wildcard union, a plain key chain, and a
// closure over overlapping alternatives (the deduplicating union and
// the regex memo).
func TestEvalAppendSelectionZeroAllocs(t *testing.T) {
	descend := Closure{Inner: anyChild()}
	overlapping := Closure{Inner: Union{Alts: []Path{
		Key{Word: "a"}, KeyRe{Re: relang.MustCompile("[a-z]+")}, Slice{Lo: 0, Hi: Inf},
	}}}
	shapes := []struct {
		name string
		sel  Path
		doc  string
	}{
		{"closure+filter", SeqOf(Closure{Inner: Union{Alts: []Path{
			KeyRe{Re: relang.MustCompile(".*")}, Slice{Lo: 0, Hi: Inf},
		}}}, Filter{Cond: KindIs{Kind: KindString}}), ""},
		{"$..k3.k7", SeqOf(descend, Key{Word: "k3"}, Key{Word: "k7"}),
			`{"k1":{"k3":{"k7":1}},"k3":[{"k7":2},{"k3":{"k7":3,"k3":{"k7":4}}}]}`},
		{"$.a[*]..b", SeqOf(Key{Word: "a"}, anyChild(), descend, Key{Word: "b"}),
			`{"a":[{"b":1},{"x":{"b":2}},[{"b":{"b":3}}]],"b":4}`},
		{"$.a.b.deep", SeqOf(Key{Word: "a"}, Key{Word: "b"}, Key{Word: "deep"}), ""},
		{"overlapping-union", SeqOf(overlapping, Filter{Cond: KindIs{Kind: KindString}}), ""},
	}
	for _, sh := range shapes {
		p := MustCompile(&Query{Pred: True{}, Sel: sh.sel})
		tree := allocProbeTree()
		if sh.doc != "" {
			tree = jsontree.MustParse(sh.doc)
		}
		want := len(p.Eval(tree))
		if want == 0 {
			t.Fatalf("%s: probe selection must select something", sh.name)
		}
		buf := make([]jsontree.NodeID, 0, tree.Len())
		for _, c := range allocCtxs {
			if got := measureAllocs(t, func() {
				var err error
				if buf, err = p.EvalAppendCtx(c.ctx, tree, buf[:0]); len(buf) != want || err != nil {
					t.Fatalf("%s: selection changed: %d nodes, %v; want %d", sh.name, len(buf), err, want)
				}
			}); got != 0 {
				t.Fatalf("%s: steady-state selection EvalAppendCtx(%s) allocates %v objects/op, want 0", sh.name, c.name, got)
			}
		}
	}
}

// TestEqPathsZeroAllocs pins EQ(π₁, π₂) to the pooled buffers too:
// both successor sets and the hash-sorted buckets live in the state's
// node-buffer freelist.
func TestEqPathsZeroAllocs(t *testing.T) {
	descend := Closure{Inner: anyChild()}
	p := MustCompile(&Query{Pred: EqPaths{Left: SeqOf(descend, Key{Word: "a"}), Right: descend}})
	tree := allocProbeTree()
	if !p.Match(tree) {
		t.Fatal("probe EQ must hold: every a-subtree is also a descendant")
	}
	for _, c := range allocCtxs {
		if got := measureAllocs(t, func() {
			if ok, err := p.MatchCtx(c.ctx, tree); !ok || err != nil {
				t.Fatalf("verdict changed between runs: %v, %v", ok, err)
			}
		}); got != 0 {
			t.Fatalf("steady-state EQ MatchCtx(%s) allocates %v objects/op, want 0", c.name, got)
		}
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
