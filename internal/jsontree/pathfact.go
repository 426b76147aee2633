package jsontree

import (
	"fmt"
	"strings"

	"jsonlogic/internal/jsonval"
)

// PathFact is a structural condition on a JSON tree, anchored at the
// root: the node reached by Steps exists and, optionally, has a given
// kind or roots a given subtree value. Path facts are the currency of
// the store's inverted path index — the query layer derives the facts
// that are *necessary* for a document to match from every front end's
// lowered query (qir.Query.FindFacts/SelectFacts, exposed per plan by
// the engine), and the index answers "which documents satisfy this
// fact" with a posting list. A fact therefore never needs to be
// sufficient; the store re-verifies every candidate against the plan.
type PathFact struct {
	// Steps is the exact navigation path from the root. An empty path
	// denotes the root itself.
	Steps []Step
	// HasClass restricts the kind of the reached node to Class.
	HasClass bool
	// Class is the required node kind when HasClass is set.
	Class Kind
	// Value, when non-nil, requires json(node) = Value. Derivation only
	// emits scalar values here (composite equalities are decomposed into
	// per-member facts), matching the index's leaf value terms.
	Value *jsonval.Value
}

// Holds reports whether the tree satisfies the fact: the node at Steps
// exists and meets the class and value restrictions. It is the
// reference semantics the index terms approximate.
func (f PathFact) Holds(t *Tree) bool {
	n := t.Navigate(t.Root(), f.Steps...)
	if n == InvalidNode {
		return false
	}
	if f.HasClass && t.Kind(n) != f.Class {
		return false
	}
	if f.Value != nil {
		if t.SubtreeHash(n) != f.Value.Hash() {
			return false
		}
		return jsonval.Equal(t.Value(n), f.Value)
	}
	return true
}

// Depth returns the number of navigation steps of the fact.
func (f PathFact) Depth() int { return len(f.Steps) }

// String renders the fact for diagnostics, e.g. `/a/0/b kind=number`
// or `/name value="sue"`.
func (f PathFact) String() string {
	var sb strings.Builder
	if len(f.Steps) == 0 {
		sb.WriteByte('$')
	}
	for _, s := range f.Steps {
		sb.WriteByte('/')
		if s.IsKey {
			sb.WriteString(s.Key)
		} else {
			fmt.Fprintf(&sb, "%d", s.Index)
		}
	}
	if f.HasClass {
		fmt.Fprintf(&sb, " kind=%s", f.Class)
	}
	if f.Value != nil {
		fmt.Fprintf(&sb, " value=%s", f.Value)
	}
	return sb.String()
}

// ValueFacts decomposes the condition "the node at steps roots exactly
// the value doc" into index-friendly facts: scalar values become exact
// Value facts, containers become a Class fact plus the recursive facts
// of every member or element. All returned facts are necessary
// conditions of the equality (they deliberately drop the "no extra
// members" half, which an inverted index cannot express).
func ValueFacts(steps []Step, doc *jsonval.Value) []PathFact {
	var facts []PathFact
	appendValueFacts(steps, doc, &facts)
	return facts
}

func appendValueFacts(steps []Step, doc *jsonval.Value, facts *[]PathFact) {
	switch doc.Kind() {
	case jsonval.Number, jsonval.String:
		*facts = append(*facts, PathFact{Steps: steps, Value: doc})
	case jsonval.Object:
		*facts = append(*facts, PathFact{Steps: steps, HasClass: true, Class: ObjectNode})
		for _, m := range doc.Members() {
			appendValueFacts(ExtendSteps(steps, Key(m.Key)), m.Value, facts)
		}
	case jsonval.Array:
		*facts = append(*facts, PathFact{Steps: steps, HasClass: true, Class: ArrayNode})
		for i, e := range doc.Elems() {
			appendValueFacts(ExtendSteps(steps, Index(i)), e, facts)
		}
	}
}

// ExtendSteps returns steps + [s] in a fresh slice, so sibling
// extensions never alias one another's backing arrays — the invariant
// every fact extractor relies on.
func ExtendSteps(steps []Step, s Step) []Step {
	out := make([]Step, len(steps)+1)
	copy(out, steps)
	out[len(steps)] = s
	return out
}
