package engine

import (
	"context"
	"runtime/debug"
	"strings"
	"testing"

	"jsonlogic/internal/jsontree"
)

// measureAllocs reports steady-state allocations per call with GC
// pinned off, after one warm-up call (same harness as internal/qir's
// alloc tests).
func measureAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	return testing.AllocsPerRun(200, f)
}

// TestCompileTracedUntracedZeroAllocs pins the tracing tentpole's hard
// constraint at the engine layer: with no trace armed (nil recorder),
// a plan-cache-hit CompileTraced followed by ValidateCtx — the
// per-query read path of an untraced request — allocates nothing,
// with no context and with the non-nil one the daemon always passes.
func TestCompileTracedUntracedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	e := New(Options{})
	src := `{"k": {"$gt": 1}}`
	if _, err := e.Compile(LangMongoFind, src); err != nil {
		t.Fatal(err)
	}
	tree, err := jsontree.Parse(`{"k": 5}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"nil", nil}, {"background", context.Background()}} {
		n := measureAllocs(func() {
			p, err := e.CompileTraced(LangMongoFind, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := e.ValidateCtx(c.ctx, p, tree)
			if err != nil || !ok {
				t.Fatalf("validate: %v %v", ok, err)
			}
		})
		if n != 0 {
			t.Fatalf("untraced cache-hit compile+ValidateCtx(%s) allocates: %v allocs/op, want 0", c.name, n)
		}
	}
}

// corpusDoc is shaped like the benchmark corpus (benchmark/jsonbench):
// a meta block and a three-level payload, 327 bytes, key-sorted as the
// store writes documents.
const corpusDoc = `{"meta":{"region":"r4","seq":4,"tenant":"t4"},"payload":{"k10":{"k0":{"k1":59,"k10":"s30","k9":89},"k1":{"k10":"s12","k3":"s46","k7":16},"k2":{"k3":87,"k6":59}},"k6":{"k10":{"k10":87,"k2":21,"k9":56},"k4":{"k0":"s2","k2":31,"k9":"s74"},"k6":[73,53,27]},"k9":[["s71","s40",81],[9,56,"s80"],{"k0":"s65","k11":"s80","k5":"s78"}]}}`

// TestBuildTreeAllocsBounded pins the reader-to-tree step, PUT
// /docs' route: BuildTree over a reused Builder, and over the pooled
// one PUT passes nil for, costs the Tree's four allocations plus the
// read buffer and the string parsed from it — six a document, not
// the eleven of a fresh Builder's arenas.
func TestBuildTreeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	for _, tc := range []struct {
		name string
		b    *jsontree.Builder
	}{{"reused", jsontree.NewBuilder()}, {"pooled", nil}} {
		var r strings.Reader
		if n := measureAllocs(func() {
			r.Reset(corpusDoc)
			if _, err := BuildTree(&r, tc.b); err != nil {
				t.Fatal(err)
			}
		}); n > 6 {
			t.Errorf("BuildTree (%s Builder): %.1f allocs per document, want ≤ 6", tc.name, n)
		}
	}
}
