package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/trace"
)

// Selection is the node-selection result for one document.
type Selection struct {
	ID string
	// Tree is the snapshot the node IDs refer to. Callers resolving
	// Nodes must use it rather than re-fetching by ID — a concurrent
	// replacement of the document would make the IDs meaningless.
	Tree  *jsontree.Tree
	Nodes []jsontree.NodeID
}

// batchCancelDocs is how often (in documents) the per-shard evaluation
// loop polls a non-nil ctx between documents; must be a power of two.
// Within one document the executor's own step counter bounds the
// latency, so this poll only matters for shards of tiny documents.
const batchCancelDocs = 64

// docPair is a snapshot of one stored document. A nil tree marks a
// segment document an exact find already matched on its stored text
// (collectCandidates); only the find collector ever sees one.
type docPair struct {
	id   string
	tree *jsontree.Tree
}

// execInfo aggregates one execution's counter inputs — parallelism,
// intersection work, candidate count — returned up to the query
// wrappers, which alone bump the store's counters (account). Explain
// runs the identical pipeline and simply discards it, so explaining a
// query never disturbs the statistics.
type execInfo struct {
	workers    int
	steps      uint64
	candidates int
}

// collectCandidates snapshots the shard's candidates for one query
// under the shard's read lock: when indexed, the union of the
// memtable's posting intersection and the segment's (tombstone-
// filtered), the whole shard otherwise. Trees are immutable, so
// evaluation happens after the lock is released; each query sees a
// consistent per-shard snapshot. candidates counts what the access
// path produced, steps both tiers' merge work.
//
// exact, non-nil only for an indexed exact find, is the plan's whole
// fact set: each segment candidate is then checked against every fact
// on its stored text, here under the lock that keeps the mapping
// alive, and leaves as a matched ID with no tree — no parse, no resolve
// cache fill, no evaluation. Checking every fact, not just the probed
// terms, keeps the answer independent of the 64-bit term hashes, their
// collisions and the terms the planner skipped. Memtable candidates
// already hold trees and go to evaluation as usual.
//
// The error is a segment resolve/decode failure — impossible while the
// mapping is intact, surfaced rather than swallowed. An armed trace
// gets one "probe" span per indexed shard (both tiers' posting-list
// lengths, merge steps, gallop switches per tier, surviving candidates,
// and for an exact find the segment candidates verified and rejected);
// tr is nil on the untraced path.
func (sh *shard) collectCandidates(terms []uint64, indexed bool, exact []jsontree.PathFact, tr *trace.Trace, shardIdx int) (dst []docPair, candidates, steps int, err error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !indexed {
		err := sh.each(func(id string, t *jsontree.Tree) {
			dst = append(dst, docPair{id: id, tree: t})
		})
		return dst, len(dst), 0, err
	}
	sp := trace.None
	if tr != nil {
		sp = tr.Start(tr.Root(), "probe")
		tr.Attr(sp, "shard", int64(shardIdx))
		tr.AttrStr(sp, "lists", postingLengths(sh, terms))
	}
	scr := acquireProbeScratch()
	defer releaseProbeScratch(scr)
	ords, steps, gallops := sh.ix.probe(terms, scr)
	dst = make([]docPair, 0, len(ords))
	for _, ord := range ords {
		// The probe result may carry tombstoned ordinals; the dictionary
		// filters them here, while the lock still pins it.
		if id := sh.ix.ids[ord]; id != "" {
			dst = append(dst, docPair{id: id, tree: sh.ix.trees[ord]})
		}
	}
	// Segment tier second: its probe reuses the scratch's ping-pong
	// buffers, which is safe exactly because the memtable result was
	// just consumed into dst. The tiers are disjoint, so appending
	// cannot duplicate an ID.
	segOrds, segSteps, segGallops, err := sh.seg.probe(terms, scr)
	candidates = len(dst) + len(segOrds)
	dst = slices.Grow(dst, len(segOrds))
	verified := 0
	for _, ord := range segOrds {
		if exact != nil {
			var ok bool
			if ok, err = sh.seg.r.matches(ord, exact); err != nil {
				break
			}
			if ok {
				dst = append(dst, docPair{id: sh.seg.r.id(ord)})
				verified++
			}
			continue
		}
		var d docPair
		if d, err = sh.seg.doc(ord); err != nil {
			break
		}
		dst = append(dst, d)
	}
	steps += segSteps
	tr.Attr(sp, "steps", int64(steps))
	tr.Attr(sp, "gallops", int64(gallops))
	tr.Attr(sp, "seg_steps", int64(segSteps))
	tr.Attr(sp, "seg_gallops", int64(segGallops))
	tr.Attr(sp, "candidates", int64(candidates))
	if exact != nil {
		tr.Attr(sp, "verified", int64(verified))
		tr.Attr(sp, "rejected", int64(len(segOrds)-verified))
	}
	tr.End(sp)
	return dst, candidates, steps, err
}

// postingLengths renders the probed terms' posting-list lengths across
// both tiers ("12,4096"), in term order — the trace's record of what
// the intersection was up against on this shard. Like the planner's
// statistics, the lengths may include tombstoned documents.
func postingLengths(sh *shard, terms []uint64) string {
	var b []byte
	for i, term := range terms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(len(sh.ix.postings[term])+sh.seg.cardinality(term)), 10)
	}
	return string(b)
}

// fanOut runs task(0 … shards-1) over at most s.queryWorkers workers
// (work-stealing by atomic counter) and returns how many workers ran
// plus the first task error.
// The calling goroutine is one of the workers, so a query that cannot
// parallelize — one worker, or one shard — spawns nothing. A non-nil
// ctx is polled before every shard task, so a cancelled query stops
// picking up shards; in-flight tasks notice via their own checkpoints.
// Once any task has failed no worker starts another shard.
func (s *Store) fanOut(ctx context.Context, task func(shardIdx int) error) (int, error) {
	n := len(s.shards)
	workers := min(s.queryWorkers, n)
	var (
		next     atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for firstErr.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			var err error
			if ctx != nil {
				err = ctx.Err()
			}
			if err == nil {
				err = task(i)
			}
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker()
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return workers, *ep
	}
	return workers, nil
}

// annotatePlanSpan records the planner's verdict on the trace's plan
// span: access path, whether the find is answered by exact facts,
// justification, and the terms kept/skipped with their cardinalities.
func annotatePlanSpan(tr *trace.Trace, sp trace.SpanID, plan *QueryPlan) {
	if tr == nil {
		return
	}
	tr.AttrStr(sp, "access", plan.Access.String())
	tr.AttrStr(sp, "exact", strconv.FormatBool(plan.Exact))
	tr.AttrStr(sp, "reason", plan.Reason)
	tr.Attr(sp, "doc_count", int64(plan.DocCount))
	skipped := plan.TermsSkipped()
	tr.Attr(sp, "terms_kept", int64(len(plan.Terms)-skipped))
	tr.Attr(sp, "terms_skipped", int64(skipped))
	tr.Attr(sp, "est_candidates", int64(plan.EstCandidates))
	if len(plan.Terms) > 0 {
		tr.AttrStr(sp, "terms", renderTerms(plan.Terms))
	}
}

// renderTerms compacts the planner's per-term decisions into one
// attribute value: "fact=cardinality" per term, "!" marking skipped
// terms, comma-separated in planner (ascending-cardinality) order.
func renderTerms(terms []TermPlan) string {
	var b []byte
	for i, t := range terms {
		if i > 0 {
			b = append(b, ',')
		}
		if t.Skipped {
			b = append(b, '!')
		}
		b = append(b, t.Fact...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(t.Cardinality), 10)
	}
	return string(b)
}

// accessPlan decides how a planned query reaches its candidates and
// records the decision on tr. A compile-time emptiness proof answers
// first ("semantic" span, access path "semantic", nothing probed): an
// unsatisfiable query always, a schema-unsatisfiable one only on a
// store that enforces the schema (otherwise nonconforming resident
// documents could match). Everything else goes to the cost-based
// planner ("plan" span). The schema-pruned fact set is likewise
// honoured only by a schema-enforcing store: without enforcement the
// documents never passed conformance validation, so "universal over
// conforming documents" promises nothing. exact says the facts are
// also sufficient (a find whose plan is FindExact); an indexed plan
// then records Exact, and its segment candidates are checked on their
// text rather than evaluated.
func (s *Store) accessPlan(p *engine.Plan, facts []jsontree.PathFact, exact bool, tr *trace.Trace) QueryPlan {
	verdict := ""
	switch {
	case p.Unsatisfiable():
		verdict = "unsat"
	case p.SchemaUnsatisfiable() && s.opts.Schema != nil:
		verdict = "schema_unsat"
	}
	if verdict != "" {
		sp := tr.Start(tr.Root(), "semantic")
		tr.AttrStr(sp, "verdict", verdict)
		tr.End(sp)
		return QueryPlan{
			Access:   AccessSemantic,
			Reason:   "semantic: provably empty (" + verdict + "); no documents probed or evaluated",
			DocCount: s.DocCount(),
		}
	}
	var pruned map[string]bool
	if s.opts.Schema != nil {
		pruned = p.SchemaPruned()
	}
	sp := tr.Start(tr.Root(), "plan")
	plan := s.planFacts(facts, pruned)
	plan.Exact = exact && plan.Access == AccessIndex
	annotatePlanSpan(tr, sp, &plan)
	tr.End(sp)
	return plan
}

// collector is everything that differs between find and select: which
// of the plan's facts feed the planner, what one evaluated candidate
// contributes to its shard's result, how the merged result is ordered,
// and which counters the query is booked under.
type collector[R any] struct {
	sel   bool
	facts func(*engine.Plan) []jsontree.PathFact
	// collect evaluates d and appends what the query keeps of it to
	// kept. buf is the shard task's node buffer, reused across
	// documents so steady-state evaluation does not allocate.
	collect func(ctx context.Context, e *engine.Engine, p *engine.Plan, d docPair, kept []R, buf []jsontree.NodeID) ([]R, []jsontree.NodeID, error)
	sort    func([]R)
}

// findCollector keeps the IDs of the documents the plan's boolean
// semantics accept.
var findCollector = collector[string]{
	facts: (*engine.Plan).FindFacts,
	collect: func(ctx context.Context, e *engine.Engine, p *engine.Plan, d docPair, kept []string, buf []jsontree.NodeID) ([]string, []jsontree.NodeID, error) {
		if d.tree == nil { // matched on its text by an exact find
			return append(kept, d.id), buf, nil
		}
		ok, err := e.ValidateCtx(ctx, p, d.tree)
		if ok {
			kept = append(kept, d.id)
		}
		return kept, buf, err
	},
	sort: sort.Strings,
}

// selectCollector keeps, per document with at least one selected node,
// a copy of the selected node IDs in evaluation order.
var selectCollector = collector[Selection]{
	sel:   true,
	facts: (*engine.Plan).SelectFacts,
	collect: func(ctx context.Context, e *engine.Engine, p *engine.Plan, d docPair, kept []Selection, buf []jsontree.NodeID) ([]Selection, []jsontree.NodeID, error) {
		buf, err := e.EvalAppendCtx(ctx, p, d.tree, buf[:0])
		if len(buf) > 0 {
			kept = append(kept, Selection{ID: d.id, Tree: d.tree, Nodes: slices.Clone(buf)})
		}
		return kept, buf, err
	},
	sort: func(out []Selection) {
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	},
}

// forcedScan is the access plan of FindScan and SelectScan: every
// document, no semantic short-circuit, no planner.
var forcedScan = QueryPlan{Access: AccessScan, Reason: "forced scan"}

// run is the one query pipeline: semantic short-circuit, access plan,
// per-shard probe and evaluation on the bounded worker pool, sorted
// merge — recording spans on tr (which may be nil) and honouring a
// non-nil ctx, whose first error aborts the fan-out with whatever
// spans were recorded so far. A non-nil forced replaces the first two
// stages with the caller's access plan (the reference scans; the
// planner benchmarks' forced index). The merge is sorted by document
// ID, so the result is deterministic whatever the interleaving. run
// touches no counter; see account.
func run[R any](ctx context.Context, s *Store, p *engine.Plan, tr *trace.Trace, forced *QueryPlan, c collector[R]) ([]R, QueryPlan, execInfo, error) {
	var plan QueryPlan
	if forced != nil {
		plan = *forced
	} else if plan = s.accessPlan(p, c.facts(p), !c.sel && p.FindExact(), tr); plan.Access == AccessSemantic {
		return nil, plan, execInfo{}, nil
	}
	var exact []jsontree.PathFact
	if plan.Exact {
		exact = p.FindFacts()
	}
	indexed := plan.Access == AccessIndex
	perShard := make([][]R, len(s.shards))
	var candidates, steps atomic.Int64
	workers, err := s.fanOut(ctx, func(i int) error {
		pairs, cands, st, err := s.shards[i].collectCandidates(plan.probeTerms, indexed, exact, tr, i)
		if err != nil {
			return err
		}
		candidates.Add(int64(cands))
		steps.Add(int64(st))
		sp := tr.Start(tr.Root(), "eval")
		tr.Attr(sp, "shard", int64(i))
		var (
			kept []R
			buf  []jsontree.NodeID
		)
		if indexed {
			// Every candidate may match; a scan's shard-sized candidate
			// list would overstate most answers, so it grows instead.
			kept = make([]R, 0, len(pairs))
		}
		evaluated := 0 // pairs less those an exact find already matched
		for di, pair := range pairs {
			if ctx != nil && di&(batchCancelDocs-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if pair.tree != nil {
				evaluated++
			}
			if kept, buf, err = c.collect(ctx, s.eng, p, pair, kept, buf); err != nil {
				return err
			}
		}
		tr.Attr(sp, "docs", int64(evaluated))
		tr.Attr(sp, "matches", int64(len(kept)))
		tr.End(sp)
		perShard[i] = kept
		return nil
	})
	info := execInfo{workers: workers, steps: uint64(steps.Load()), candidates: int(candidates.Load())}
	if err != nil {
		return nil, plan, info, err
	}
	msp := tr.Start(tr.Root(), "merge")
	out := slices.Concat(perShard...)
	if out == nil {
		out = []R{} // an empty answer renders as [], not null
	}
	c.sort(out)
	tr.Attr(msp, "results", int64(len(out)))
	tr.End(msp)
	return out, plan, info, nil
}

// account is the single counter tail of every counted query: the
// cancellation, the planner's verdict, the fan-out's parallelism and
// intersection work, and the access path with its candidate-set size
// (totals per path, plus a per-query histogram for indexed queries —
// a scan's candidate count is just the collection size).
func (s *Store) account(sel bool, plan *QueryPlan, info execInfo, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.cancellations.Add(1)
	}
	if plan.Access == AccessSemantic {
		// A compile-time proof answered the query: nothing was probed,
		// scanned or evaluated, so none of the execution counters apply.
		s.semShortCircuits.Add(1)
		return
	}
	if plan.Access == AccessScan && len(plan.Terms) > 0 {
		s.plannerScan.Add(1)
	}
	if skipped := plan.TermsSkipped(); skipped > 0 {
		s.termsSkipped.Add(uint64(skipped))
	}
	if plan.prunedTerms > 0 {
		s.termsPruned.Add(uint64(plan.prunedTerms))
	}
	if info.workers > 1 {
		s.parallelQueries.Add(1)
	} else {
		s.serialQueries.Add(1)
	}
	s.fanoutWorkers.Observe(info.workers)
	if info.steps > 0 {
		s.intersectionSteps.Add(info.steps)
	}
	switch indexed := plan.Access == AccessIndex; {
	case indexed && sel:
		s.selectIndexed.Add(1)
		s.selectCandidates.Observe(info.candidates)
	case indexed:
		s.findIndexed.Add(1)
		s.findCandidates.Observe(info.candidates)
	case sel:
		s.selectScan.Add(1)
	default:
		s.findScan.Add(1)
	}
	if plan.Access == AccessIndex {
		s.candidateDocs.Add(uint64(info.candidates))
	} else {
		s.scannedDocs.Add(uint64(info.candidates))
	}
}

// query is run plus account: what every public entry point except
// Explain executes. The returned flag reports whether the index
// answered the query.
func query[R any](ctx context.Context, s *Store, p *engine.Plan, tr *trace.Trace, forced *QueryPlan, c collector[R]) ([]R, bool, error) {
	out, plan, info, err := run(ctx, s, p, tr, forced, c)
	s.account(c.sel, &plan, info, err)
	return out, plan.Access == AccessIndex, err
}

// Find returns the IDs of all documents matching the plan's boolean
// semantics (engine.Validate), sorted. The cost-based planner decides
// per query between posting-list intersection and a full scan; results
// are identical either way — the plan's facts are necessary conditions
// of matching, and an exact plan's segment candidates are checked
// against all of them. The returned indexed flag reports which access
// path answered the query.
func (s *Store) Find(p *engine.Plan) (ids []string, indexed bool, err error) {
	return query(nil, s, p, nil, nil, findCollector)
}

// FindTraced is Find recording the pipeline's spans on tr and
// honouring ctx. A nil tr reduces the recorder calls to nil checks; a
// nil ctx is never polled. With a non-nil ctx, evaluation checkpoints
// cooperatively and the first ctx error aborts the query, returning
// ctx.Err().
func (s *Store) FindTraced(ctx context.Context, p *engine.Plan, tr *trace.Trace) (ids []string, indexed bool, err error) {
	return query(ctx, s, p, tr, nil, findCollector)
}

// FindScan is Find with the planner, the semantic short-circuit and
// the index disabled: the reference full scan the differential tests
// compare against.
func (s *Store) FindScan(p *engine.Plan) ([]string, error) {
	ids, _, err := query(nil, s, p, nil, &forcedScan, findCollector)
	return ids, err
}

// Select runs the plan's node-selection semantics (engine.Eval) over
// the collection and returns, per document with at least one selected
// node, the selected node IDs in evaluation order, sorted by document
// ID. The planner consults the plan's select facts, which exist only
// for root-anchored selection (JSONPath); all other plans scan. The
// returned indexed flag reports the chosen access path.
func (s *Store) Select(p *engine.Plan) (sels []Selection, indexed bool, err error) {
	return query(nil, s, p, nil, nil, selectCollector)
}

// SelectTraced is Select recording the pipeline's spans on tr and
// honouring ctx (see FindTraced).
func (s *Store) SelectTraced(ctx context.Context, p *engine.Plan, tr *trace.Trace) (sels []Selection, indexed bool, err error) {
	return query(ctx, s, p, tr, nil, selectCollector)
}

// SelectScan is Select with the planner and index disabled.
func (s *Store) SelectScan(p *engine.Plan) ([]Selection, error) {
	sels, _, err := query(nil, s, p, nil, &forcedScan, selectCollector)
	return sels, err
}

// Explanation is the full story of one query against this store: the
// compile-time plan (lowered logical tree, physical operator program,
// index facts) and the run-time access decision with estimated versus
// actual cardinalities. Explain executes the query, so the actual
// numbers are measured, not modelled.
type Explanation struct {
	Plan engine.PlanExplain `json:"plan"`
	// Mode is "find" or "select".
	Mode string `json:"mode"`
	// Access is the chosen access path ("index" or "scan"), Reason the
	// planner's justification.
	Access string `json:"access"`
	Reason string `json:"reason"`
	// Exact is true when an indexed find's facts are also sufficient
	// (engine.Plan.FindExact): its segment candidates were checked on
	// their stored text instead of evaluated.
	Exact bool `json:"exact"`
	// DocCount is the collection size at planning time.
	DocCount int `json:"doc_count"`
	// Terms are the index-supported facts with their statistics and
	// class histograms, ordered by ascending cardinality.
	Terms []TermPlan `json:"terms,omitempty"`
	// EstCandidates is the planner's upper bound on the candidate
	// count; ActualCandidates is what the access path produced. With no
	// concurrent writes, EstCandidates ≥ ActualCandidates always.
	EstCandidates    int `json:"est_candidates"`
	ActualCandidates int `json:"actual_candidates"`
	// ActualResults counts matching documents (find) or documents with
	// at least one selected node (select).
	ActualResults int `json:"actual_results"`
	// Trace is the span tree recorded while executing this explanation
	// — the same recorder and pipeline the slow-query log uses, so the
	// stage timings are measured on the production path, not modelled
	// by a parallel one.
	Trace []*trace.SpanOut `json:"trace"`
}

// Explain plans and executes the query in the given mode ("find" or
// "select") under an always-armed trace recorder, reporting the
// logical and physical trees, estimated and actual cardinalities, and
// the recorded per-stage span tree. It runs the real pipeline (run —
// exactly what Find and Select execute) but does not disturb the
// store's query counters.
func (s *Store) Explain(ctx context.Context, p *engine.Plan, mode string) (Explanation, error) {
	switch mode {
	case "":
		mode = "find"
	case "find", "select":
	default:
		return Explanation{}, fmt.Errorf("store: explain: unknown mode %q", mode)
	}
	tr := trace.NewTrace("explain")
	tr.SetQuery(p.Language().String(), p.Source(), mode)
	var (
		plan    QueryPlan
		info    execInfo
		results int
		err     error
	)
	if mode == "find" {
		var ids []string
		ids, plan, info, err = run(ctx, s, p, tr, nil, findCollector)
		results = len(ids)
	} else {
		var sels []Selection
		sels, plan, info, err = run(ctx, s, p, tr, nil, selectCollector)
		results = len(sels)
	}
	if err != nil {
		return Explanation{}, err
	}
	for i := range plan.Terms {
		plan.Terms[i].Classes = s.ClassHistogram(plan.Terms[i].steps).Map()
	}
	return Explanation{
		Plan:             p.Explain(),
		Mode:             mode,
		Access:           plan.Access.String(),
		Reason:           plan.Reason,
		Exact:            plan.Exact,
		DocCount:         plan.DocCount,
		Terms:            plan.Terms,
		EstCandidates:    plan.EstCandidates,
		ActualCandidates: info.candidates,
		ActualResults:    results,
		Trace:            tr.Spans(),
	}, nil
}
