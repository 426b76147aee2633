package store

import (
	"fmt"
	"sort"

	"jsonlogic/internal/jsontree"
)

// The cost-based access planner. Given a plan's path facts it decides,
// per query, between the inverted index and a full scan, and — when
// indexing — which posting lists to intersect and in what order:
//
//   - terms are ordered by ascending cardinality, so the intersection
//     iterates the smallest list and the earliest membership probes
//     fail fastest;
//   - terms whose selectivity exceeds uselessSelectivity prune too
//     little to pay for their per-candidate membership probe and are
//     skipped (the most selective term is always kept);
//   - when even the best term leaves more than scanSelectivity of the
//     collection as candidates, probing buys nothing over evaluating
//     everything and the planner chooses the scan.
//
// The intersection cardinality is bounded above by the smallest term
// cardinality (per shard the intersection is a subset of each posting
// list, and summing over shards preserves the bound), so EstCandidates
// is a provable upper bound on the candidate count — the property the
// explain tests assert against actual executions.

const (
	// maxPlanTerms bounds how many posting lists one query intersects.
	maxPlanTerms = 6
	// uselessSelectivity is the per-term skip cutoff: a term carried by
	// more than this fraction of the collection is not worth probing.
	uselessSelectivity = 0.5
	// scanSelectivity is the index-versus-scan cutoff on the best
	// term's selectivity.
	scanSelectivity = 0.75
)

// AccessPath is the planner's verdict for one query.
type AccessPath uint8

const (
	// AccessScan evaluates every document.
	AccessScan AccessPath = iota
	// AccessIndex evaluates only the posting-list intersection.
	AccessIndex
	// AccessSemantic answers from a compile-time emptiness proof: the
	// query is provably empty (unsatisfiable, or unsatisfiable over the
	// enforced schema) and no document is probed or evaluated at all.
	AccessSemantic
)

// String returns "scan", "index" or "semantic".
func (a AccessPath) String() string {
	switch a {
	case AccessIndex:
		return "index"
	case AccessSemantic:
		return "semantic"
	}
	return "scan"
}

// TermPlan describes one candidate index term of a query plan.
type TermPlan struct {
	// Fact is the rendered path fact the term encodes.
	Fact string `json:"fact"`
	// Cardinality is the term's posting-list length across shards.
	Cardinality int `json:"cardinality"`
	// Selectivity is Cardinality / DocCount (0 for an empty store).
	Selectivity float64 `json:"selectivity"`
	// Skipped marks terms the planner dropped, with the reason.
	Skipped bool   `json:"skipped,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Classes is the class histogram at the fact's path; filled by
	// Explain only (it costs extra index probes).
	Classes map[string]int `json:"classes,omitempty"`

	term  uint64
	steps []jsontree.Step
}

// QueryPlan is the planner's output for one query and mode.
type QueryPlan struct {
	// Access is the chosen access path, Reason why.
	Access AccessPath `json:"-"`
	Reason string     `json:"reason"`
	// Exact marks an indexed find whose facts are also sufficient, so
	// its segment candidates are checked on their text (accessPlan).
	Exact bool `json:"exact"`
	// DocCount is the collection size the plan was made against.
	DocCount int `json:"doc_count"`
	// Terms lists every index-supported fact with its statistics,
	// ordered by ascending cardinality; skipped terms are marked.
	Terms []TermPlan `json:"terms,omitempty"`
	// EstCandidates is a provable upper bound on the number of
	// documents the chosen access path evaluates: the smallest kept
	// term cardinality under AccessIndex, the collection size under
	// AccessScan.
	EstCandidates int `json:"est_candidates"`

	probeTerms  []uint64 // kept terms in probe order
	prunedTerms int      // terms skipped as schema-universal
}

// planFacts builds the access plan for a fact set against the store's
// current statistics; pruned (may be nil) marks facts whose terms the
// schema proved universal — see accessPlan.
func (s *Store) planFacts(facts []jsontree.PathFact, pruned map[string]bool) QueryPlan {
	return planQueryPruned(s, facts, s.opts.MaxIndexDepth, pruned)
}

// planQuery is the planner core, parameterized over Statistics so
// tests can drive it with synthetic distributions.
func planQuery(stats Statistics, facts []jsontree.PathFact, maxIndexDepth int) QueryPlan {
	return planQueryPruned(stats, facts, maxIndexDepth, nil)
}

// planQueryPruned is planQuery honoring a schema-pruned fact set:
// facts the schema proves every conforming document carries. Their
// posting lists contain (at least) the whole conforming collection, so
// intersecting them cannot narrow the candidate set; they are reported
// as skipped terms and never probed.
func planQueryPruned(stats Statistics, facts []jsontree.PathFact, maxIndexDepth int, pruned map[string]bool) QueryPlan {
	n := stats.DocCount()
	plan := QueryPlan{DocCount: n}

	seen := make(map[uint64]struct{}, len(facts))
	for _, f := range facts {
		// Report the fact the index answers: over-deep facts degrade to
		// their in-bound prefix presence, and the statistics below
		// belong to that degraded term.
		f = effectiveFact(f, maxIndexDepth)
		term, ok := factTerm(f, maxIndexDepth)
		if !ok {
			continue
		}
		if _, dup := seen[term]; dup {
			continue
		}
		seen[term] = struct{}{}
		card := stats.TermCardinality(term)
		tp := TermPlan{Fact: f.String(), Cardinality: card, term: term, steps: f.Steps}
		if n > 0 {
			tp.Selectivity = float64(card) / float64(n)
		}
		if pruned[tp.Fact] {
			tp.Skipped = true
			tp.Reason = "schema: held by every conforming document"
			plan.prunedTerms++
		}
		plan.Terms = append(plan.Terms, tp)
	}
	if len(plan.Terms) == 0 {
		plan.Access = AccessScan
		plan.Reason = "no index-supported facts"
		plan.EstCandidates = n
		return plan
	}
	sort.SliceStable(plan.Terms, func(i, j int) bool {
		return plan.Terms[i].Cardinality < plan.Terms[j].Cardinality
	})

	// The best term is the most selective one the schema did not prune.
	var best *TermPlan
	for i := range plan.Terms {
		if !plan.Terms[i].Skipped {
			best = &plan.Terms[i]
			break
		}
	}
	if best == nil {
		plan.Access = AccessScan
		plan.Reason = "every index term is schema-universal: intersection cannot narrow a conforming collection"
		plan.EstCandidates = n
		return plan
	}
	if n > 0 && best.Selectivity > scanSelectivity {
		plan.Access = AccessScan
		plan.Reason = fmt.Sprintf("intersection unselective: best term %s matches %.0f%% of %d documents",
			best.Fact, 100*best.Selectivity, n)
		plan.EstCandidates = n
		return plan
	}

	plan.Access = AccessIndex
	plan.EstCandidates = best.Cardinality
	plan.probeTerms = append(plan.probeTerms, best.term)
	for i := range plan.Terms {
		t := &plan.Terms[i]
		if t == best || t.Skipped {
			continue
		}
		switch {
		case len(plan.probeTerms) >= maxPlanTerms:
			t.Skipped = true
			t.Reason = fmt.Sprintf("term cap (%d) reached", maxPlanTerms)
		case t.Selectivity > uselessSelectivity:
			t.Skipped = true
			t.Reason = fmt.Sprintf("selectivity %.2f above skip cutoff %.2f", t.Selectivity, uselessSelectivity)
		default:
			plan.probeTerms = append(plan.probeTerms, t.term)
		}
	}
	skipped := len(plan.Terms) - len(plan.probeTerms)
	plan.Reason = fmt.Sprintf("index: intersecting %d of %d terms, selectivity-ordered (%d skipped), ≤%d candidates of %d documents",
		len(plan.probeTerms), len(plan.Terms), skipped, plan.EstCandidates, n)
	return plan
}

// TermsSkipped counts the terms the planner dropped.
func (p *QueryPlan) TermsSkipped() int {
	n := 0
	for _, t := range p.Terms {
		if t.Skipped {
			n++
		}
	}
	return n
}
