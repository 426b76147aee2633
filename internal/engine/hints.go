package engine

import (
	"jsonlogic/internal/jsontree"
)

// The index-planner step. At compile time every plan derives two sets
// of path facts (jsontree.PathFact) from its lowered QIR query:
//
//   - find facts: necessary for Validate (document-level matching) to
//     return true;
//   - select facts: necessary for Eval (node selection) to return a
//     non-empty set.
//
// The store's cost-based planner turns the facts into index terms,
// consults its statistics, and chooses a probe order — or a full scan
// when the intersection would not be selective. A document missing a
// fact provably cannot match, so pruning by facts never changes
// results. Derivation lives in qir.Query.FindFacts/SelectFacts: one
// code path for all four front ends, pinned per language by
// TestIndexFactExtraction and checked for soundness against random
// plans and documents by TestIndexFactSoundness.
//
// Some find plans are exact as well (qir.Query.FactsExact): their
// predicate holds exactly when every find fact does — a conjunction of
// kind tests and scalar equalities at the ends of key/index paths, such
// as {"meta.tenant":"t3"}. The store answers those by checking the
// facts on each candidate's stored text instead of evaluating the
// plan; TestExactFactsEquivalence checks the equivalence on random
// plans and documents.
//
// Extraction is conservative: queries under negation, disjunction,
// recursion or non-deterministic axes simply yield no facts and scan —
// the fallback the differential store tests exercise alongside the
// indexed path. Node selection is root-anchored only for JSONPath
// (selection starts at the root); JNL/JSL/mongo selection may pick any
// node, so those plans carry no select facts.

// computeFacts derives find and select facts from the lowered query;
// called once from Plan.finish so Plans stay immutable afterwards.
func (p *Plan) computeFacts() {
	p.findFacts = p.query.FindFacts()
	p.findExact = len(p.findFacts) > 0 && p.query.FactsExact()
	p.selectFacts = p.query.SelectFacts()
}

// FindFacts returns path facts necessary for Validate to hold on a
// document. An empty result means the plan is not index-supported for
// document matching and the store must scan. The slice is shared and
// must not be modified.
func (p *Plan) FindFacts() []jsontree.PathFact { return p.findFacts }

// FindExact reports whether Validate holds on a document exactly when
// every fact of FindFacts does, so checking the facts decides the
// match. Facts borrowed later from a containing plan (semantic.go)
// keep this true: each is a necessary condition of the plan, so adding
// it to an equivalent conjunction leaves the conjunction equivalent.
func (p *Plan) FindExact() bool { return p.findExact }

// SelectFacts returns path facts necessary for Eval to select at least
// one node. An empty result means the plan is not index-supported for
// node selection and the store must scan. The slice is shared and must
// not be modified.
func (p *Plan) SelectFacts() []jsontree.PathFact { return p.selectFacts }
