package store

// cancel_test.go: cooperative query cancellation. A context that
// expires mid-query must abort the fan-out promptly (checkpoints in
// the per-shard loops and inside the executor), surface ctx.Err() to
// the caller, bump the cancellation counter — and a context that never
// fires (or none at all) must not perturb results.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jsonlogic/internal/engine"
)

func cancelStore(t *testing.T, docs int) *Store {
	t.Helper()
	s := New(Options{Shards: 4})
	for i := 0; i < docs; i++ {
		if err := s.PutTree(fmt.Sprintf("d%05d", i), chaosDoc(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	return s
}

// scanPlan compiles a query no index fact supports, forcing a full
// evaluation of every document.
func scanPlan(t *testing.T, s *Store) *engine.Plan {
	t.Helper()
	p, err := s.Engine().Compile(engine.LangMongoFind, `{"n":{"$ne":999999999}}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestFindCancelledContext(t *testing.T) {
	s := cancelStore(t, 2000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := s.Stats().Queries.Cancellations
	_, _, err := s.FindTraced(ctx, p, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("find with cancelled ctx: got %v, want context.Canceled", err)
	}
	if got := s.Stats().Queries.Cancellations; got != before+1 {
		t.Fatalf("cancellations counter %d, want %d", got, before+1)
	}
}

func TestSelectCancelledContext(t *testing.T) {
	s := cancelStore(t, 2000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.SelectTraced(ctx, p, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("select with cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestFindDeadlineBoundedReturn: an expired deadline over a large
// scan must return well before the scan would finish — the loops
// checkpoint every batchCancelDocs documents and the executor every
// cancelCheckEvery steps, so the latency bound is a few checkpoint
// intervals, not the query's runtime.
func TestFindDeadlineBoundedReturn(t *testing.T) {
	s := cancelStore(t, 20000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline certainly expired
	start := time.Now()
	_, _, err := s.FindTraced(ctx, p, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("find past deadline: got %v, want DeadlineExceeded", err)
	}
	// Generous bound: the uncancelled scan takes far longer, an
	// aborted one only ever evaluates a checkpoint interval per worker.
	if elapsed > time.Second {
		t.Fatalf("cancelled find took %v; checkpointing is not bounding the return", elapsed)
	}
}

func TestExplainHonoursContext(t *testing.T) {
	s := cancelStore(t, 2000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Explain(ctx, p, "find"); !errors.Is(err, context.Canceled) {
		t.Fatalf("explain with cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestContextKindsAgree: the pipeline has one body whatever the
// context, so a nil ctx, context.Background() and a live deadline must
// all answer exactly like the reference scan — in both modes, under
// the planner's access path and under the forced scan — and book no
// cancellation.
func TestContextKindsAgree(t *testing.T) {
	s := cancelStore(t, 500)
	live, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ctxs := []struct {
		name string
		ctx  context.Context
	}{{"nil", nil}, {"background", context.Background()}, {"live-deadline", live}}
	accesses := []struct {
		name   string
		forced *QueryPlan
	}{{"auto", nil}, {"scan", &forcedScan}}
	indexable, err := s.Engine().Compile(engine.LangMongoFind, `{"tag":"doc-7"}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, q := range []struct {
		name    string
		plan    *engine.Plan
		want    int
		indexed bool // the planner's verdict under "auto"
	}{{"unindexable", scanPlan(t, s), 500, false}, {"indexable", indexable, 1, true}} {
		wantIDs, err := s.FindScan(q.plan)
		if err != nil || len(wantIDs) != q.want {
			t.Fatalf("%s: reference find: %d ids, err %v; want %d", q.name, len(wantIDs), err, q.want)
		}
		wantSels, err := s.SelectScan(q.plan)
		if err != nil || len(wantSels) != q.want {
			t.Fatalf("%s: reference select: %d selections, err %v; want %d", q.name, len(wantSels), err, q.want)
		}
		for _, c := range ctxs {
			for _, a := range accesses {
				name := q.name + "/" + c.name + "/" + a.name
				ids, indexed, err := query(c.ctx, s, q.plan, nil, a.forced, findCollector)
				if err != nil || !sameIDs(ids, wantIDs) {
					t.Errorf("%s: find = %d ids, err %v; want the reference's %d", name, len(ids), err, len(wantIDs))
				}
				if want := q.indexed && a.forced == nil; indexed != want {
					t.Errorf("%s: find indexed = %v, want %v", name, indexed, want)
				}
				sels, _, err := query(c.ctx, s, q.plan, nil, a.forced, selectCollector)
				if err != nil || !sameSelections(sels, wantSels) {
					t.Errorf("%s: select = %d selections, err %v; want the reference's %d", name, len(sels), err, len(wantSels))
				}
			}
		}
	}
	if n := s.Stats().Queries.Cancellations; n != 0 {
		t.Fatalf("completed queries recorded %d cancellations", n)
	}
}
