package engine

import (
	"context"
	"runtime/debug"
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
