package qir

import (
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

// Fact derivation over the unified algebra: the one code path through
// which all four front ends get index support. FindFacts extracts
// jsontree.PathFacts that are *necessary* for a tree's root to satisfy
// the query's match predicate; the store intersects the corresponding
// posting lists to prune candidates, so a fact in general need not be
// sufficient — only sound. Extraction descends where satisfaction
// forces a condition (conjunctions, existentials over exact paths) and
// stops at anything negated, disjunctive, universal or recursive.
//
// Navigation is anchored: a node with a keyed successor must be an
// object, one with a positional successor an array, so every Exists
// contributes a class fact for its source as well as presence facts
// along its exact prefix.
//
// For one shape the facts are also sufficient: FactsExact reports a
// predicate that is a conjunction of existentials over key and
// non-negative index paths, each ending in a kind test or a scalar
// equality. Along such a path every node has at most one successor
// (JNL's deterministic X_w and X_i steps), so the predicate holds
// exactly when its facts do, and the store may answer it by checking
// the facts alone.

// FindFacts returns path facts every tree whose root satisfies the
// query must obey, deduplicated in first-appearance order. An empty
// result means nothing anchored could be extracted and the store must
// scan.
func (q *Query) FindFacts() []jsontree.PathFact {
	var facts []jsontree.PathFact
	appendNodeFacts(q.Pred, nil, &facts)
	return dedupFacts(facts)
}

// FactsExact reports whether the match predicate is equivalent to the
// conjunction of FindFacts, not merely implied by it: it is built only
// from And, True, KindIs, scalar ValEq and Exists over paths of Key
// and non-negative At parts. Anything else — filters, regexes, slices,
// unions, closures, Not, Or, ForAll, Ref, EqPaths, numeric or string
// tests, a composite ValEq — drops part of its condition from the
// facts. A predicate of True alone is trivially exact but has no facts
// to probe; the caller needs facts as well.
func (q *Query) FactsExact() bool { return exactNode(q.Pred) }

// exactNode reports whether appendNodeFacts captures all of n.
func exactNode(n Node) bool {
	switch t := n.(type) {
	case True, KindIs:
		return true
	case ValEq:
		k := t.Doc.Kind()
		return k == jsonval.Number || k == jsonval.String
	case And:
		return exactNode(t.Left) && exactNode(t.Right)
	case Exists:
		return deterministicPath(t.Path) && exactNode(t.Inner)
	}
	return false
}

// deterministicPath reports whether p moves at least one step and every
// step is a Key or a non-negative At: each node then has at most one
// p-successor, and appendExistsFacts keeps the whole path as the
// anchored prefix.
func deterministicPath(p Path) bool {
	parts := flattenPath(p, nil)
	for _, part := range parts {
		switch t := part.(type) {
		case Key:
		case At:
			if t.Index < 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(parts) > 0
}

// SelectFacts returns path facts necessary for the query's node
// selection to be non-empty. Only path-selection queries (JSONPath)
// are root-anchored; predicate queries may select any node, so no
// anchored fact exists and the result is empty.
func (q *Query) SelectFacts() []jsontree.PathFact {
	if q.Sel == nil {
		return nil
	}
	var facts []jsontree.PathFact
	appendNodeFacts(Exists{Path: q.Sel, Inner: True{}}, nil, &facts)
	return dedupFacts(facts)
}

func dedupFacts(facts []jsontree.PathFact) []jsontree.PathFact {
	if len(facts) < 2 {
		return facts
	}
	seen := make(map[string]struct{}, len(facts))
	out := facts[:0]
	for _, f := range facts {
		k := f.String()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, f)
	}
	return out
}

// appendNodeFacts accumulates facts for "the node at prefix satisfies
// n". prefix is never mutated; extensions copy.
func appendNodeFacts(n Node, prefix []jsontree.Step, facts *[]jsontree.PathFact) {
	classFact := func(k jsontree.Kind) {
		*facts = append(*facts, jsontree.PathFact{Steps: prefix, HasClass: true, Class: k})
	}
	switch t := n.(type) {
	case And:
		appendNodeFacts(t.Left, prefix, facts)
		appendNodeFacts(t.Right, prefix, facts)
	case KindIs:
		classFact(jsontree.Kind(t.Kind))
	case ValEq:
		*facts = append(*facts, jsontree.ValueFacts(prefix, t.Doc)...)
	case StrMatch:
		classFact(jsontree.StringNode)
	case NumGE:
		classFact(jsontree.NumberNode)
	case NumLE:
		classFact(jsontree.NumberNode)
	case NumMultOf:
		classFact(jsontree.NumberNode)
	case Unique:
		classFact(jsontree.ArrayNode)
	case Exists:
		appendExistsFacts(t.Path, t.Inner, prefix, facts)
	case EqPaths:
		// EQ(π₁, π₂) requires both sides to have a successor.
		for _, p := range []Path{t.Left, t.Right} {
			appendExistsFacts(p, True{}, prefix, facts)
		}
	}
	// True, ChMin, ChMax: no single-kind restriction. Not, Or:
	// satisfaction forces no branch. ForAll: vacuous on absence. Ref:
	// the definition may be recursive; contribute nothing.
}

// appendExistsFacts handles ∃π.φ at prefix by walking π's flattened
// parts: each moving step forces its source node's kind (keyed steps
// need an object, positional steps an array), exact steps extend the
// anchored prefix, and when π pins down a unique successor (complete),
// φ's facts apply there. Filters and ε skip without moving; slices
// contribute their dense lower bound (an element at any position in
// [lo,hi] implies one at lo: positions are dense, §3.1 condition 3),
// point slices name exactly one child and stay complete, and regexes,
// unions, closures and negative indices end the prefix.
func appendExistsFacts(p Path, inner Node, prefix []jsontree.Step, facts *[]jsontree.PathFact) {
	cur := prefix
	complete := true
	// anchoredAtCur tracks whether the most recent class anchor sits at
	// the current end of the prefix (a kind-forcing part that added no
	// step, e.g. a trailing KeyRe); such an anchor already implies the
	// node's existence, making a separate presence fact redundant.
	anchoredAtCur := false
	for _, part := range flattenPath(p, nil) {
		if k, ok := firstStepKind(part); ok {
			*facts = append(*facts, jsontree.PathFact{Steps: cur, HasClass: true, Class: k})
			anchoredAtCur = true
		}
		steps, cont := partSteps(part)
		for _, s := range steps {
			cur = jsontree.ExtendSteps(cur, s)
			anchoredAtCur = false
		}
		if !cont {
			complete = false
			break
		}
	}
	mark := len(*facts)
	if complete {
		appendNodeFacts(inner, cur, facts)
	}
	// Any inner fact is anchored at cur or deeper and already implies
	// the node's existence; assert presence only when neither an inner
	// fact nor a same-path class anchor was emitted.
	if len(cur) > len(prefix) && len(*facts) == mark && !anchoredAtCur {
		*facts = append(*facts, jsontree.PathFact{Steps: cur})
	}
}

// flattenPath splats nested Seqs into a flat part list.
func flattenPath(p Path, out []Path) []Path {
	if s, ok := p.(Seq); ok {
		for _, part := range s.Parts {
			out = flattenPath(part, out)
		}
		return out
	}
	return append(out, p)
}

// partSteps returns the exact navigation steps one path part forces,
// and whether the anchored prefix continues past it.
func partSteps(p Path) (steps []jsontree.Step, cont bool) {
	switch t := p.(type) {
	case Here, Filter:
		// Non-moving: ⟨φ⟩ restricts without moving.
		return nil, true
	case Key:
		return []jsontree.Step{jsontree.Key(t.Word)}, true
	case At:
		if t.Index < 0 {
			// Negative indices address from the end; without the array
			// length they name no fixed path.
			return nil, false
		}
		return []jsontree.Step{jsontree.Index(t.Index)}, true
	case Slice:
		if t.Lo < 0 {
			return nil, false
		}
		return []jsontree.Step{jsontree.Index(t.Lo)}, t.Lo == t.Hi
	}
	// KeyRe, Union, Closure: no single exact step is required.
	return nil, false
}

// firstStepKind returns the node kind π's source must have for any
// successor to exist: keyed steps require an object, positional steps
// an array. ok is false when the path can succeed without moving
// (ε, filters, closures) or when union alternatives disagree.
func firstStepKind(p Path) (jsontree.Kind, bool) {
	switch t := p.(type) {
	case Key, KeyRe:
		return jsontree.ObjectNode, true
	case At, Slice:
		return jsontree.ArrayNode, true
	case Seq:
		for _, part := range t.Parts {
			switch part.(type) {
			case Here, Filter:
				// Non-moving; the next part's step applies to the source.
				continue
			}
			return firstStepKind(part)
		}
		return 0, false
	case Union:
		var kind jsontree.Kind
		for i, alt := range t.Alts {
			k, ok := firstStepKind(alt)
			if !ok {
				return 0, false
			}
			if i == 0 {
				kind = k
			} else if k != kind {
				return 0, false
			}
		}
		return kind, len(t.Alts) > 0
	}
	// Here, Filter, Closure: a successor may exist without any step.
	return 0, false
}
