package jsontree

import (
	"fmt"
	"strings"
	"sync"

	"jsonlogic/internal/jsonval"
)

// PathFact is a structural condition on a JSON tree, anchored at the
// root: the node reached by Steps exists and, optionally, has a given
// kind or roots a given subtree value. Path facts are the currency of
// the store's inverted path index — the query layer derives the facts
// that are *necessary* for a document to match from every front end's
// lowered query (qir.Query.FindFacts/SelectFacts, exposed per plan by
// the engine), and the index answers "which documents satisfy this
// fact" with a posting list. In general a fact is not sufficient, and
// the store evaluates every candidate against the plan. When a plan's
// facts are also sufficient (qir.Query.FactsExact), the store instead
// checks each segment candidate against all of them on its stored
// text with HoldsJSON.
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

// HoldsJSON reports whether the JSON document text doc satisfies the
// fact, reading the bytes in place: it walks the fact's keys and
// indices over a jsonval.Lexer, skipping sibling values, and tests the
// reached value's kind and, for a scalar Value, the number or the
// string itself. Keys and strings are compared as views of doc (or of
// the pooled Lexer's scratch, for those with escapes), so it allocates
// nothing and builds no tree. On any text Parse accepts it agrees with
// Holds(Parse(doc)). Bytes it cannot read — a malformed value on the
// way, a truncated document — are an error, never a silent false; so
// are the facts it cannot decide on text alone, a negative index
// (which counts from the end) and a container Value. Text after the
// reached value is not read, so a document broken only there may
// still answer.
func (f PathFact) HoldsJSON(doc []byte) (bool, error) {
	if f.Value != nil && f.Value.Kind() != jsonval.Number && f.Value.Kind() != jsonval.String {
		return false, fmt.Errorf("jsontree: fact %s: container values are not checked on text", f)
	}
	l := lexers.Get().(*jsonval.Lexer[[]byte])
	defer func() {
		l.Reset(nil) // forget doc: it may be a mapped segment
		lexers.Put(l)
	}()
	l.Reset(doc)
	l.SkipSpace()
	for _, st := range f.Steps {
		want := ObjectNode
		if !st.IsKey {
			if st.Index < 0 {
				return false, fmt.Errorf("jsontree: fact %s: negative indices are not checked on text", f)
			}
			want = ArrayNode
		}
		if kind, err := textKind(l); err != nil || kind != want {
			return false, err
		}
		if found, err := seek(l, st, true, 0); err != nil || !found {
			return false, err
		}
	}
	kind, err := textKind(l)
	if err != nil {
		return false, err
	}
	if f.HasClass && kind != f.Class {
		return false, nil
	}
	switch {
	case f.Value == nil:
		return true, nil
	case f.Value.Kind() == jsonval.Number:
		if kind != NumberNode {
			return false, nil
		}
		n, err := l.ScanNumber()
		return err == nil && n == f.Value.Num(), err
	case kind != StringNode:
		return false, nil
	}
	s, err := l.ScanString()
	return err == nil && string(s) == f.Value.Str(), err
}

// lexers pools HoldsJSON's Lexers, so a string with escapes is decoded
// into scratch that outlives one call.
var lexers = sync.Pool{New: func() any { return new(jsonval.Lexer[[]byte]) }}

// textKind classifies the value starting at l's offset by its first
// byte.
func textKind(l *jsonval.Lexer[[]byte]) (Kind, error) {
	if l.Pos < len(l.In) {
		switch c := l.In[l.Pos]; {
		case c == '{':
			return ObjectNode, nil
		case c == '[':
			return ArrayNode, nil
		case c == '"':
			return StringNode, nil
		case c >= '0' && c <= '9':
			return NumberNode, nil
		}
	}
	return 0, l.ValueError()
}

// seek enters the object or array at l's offset and, when find is set,
// stops at the value of the member named st.Key or of element
// st.Index, reporting true. Otherwise — nothing to find, or no such
// member or element — it consumes the container whole, checking every
// value it skips. depth bounds the nesting as jsonval.MaxDepth bounds
// the parsers'.
func seek(l *jsonval.Lexer[[]byte], st Step, find bool, depth int) (bool, error) {
	if depth >= jsonval.MaxDepth {
		return false, l.Errorf("nesting depth exceeds %d", jsonval.MaxDepth)
	}
	closer := byte(']')
	if l.In[l.Pos] == '{' {
		closer = '}'
	}
	if l.Open() {
		return false, nil
	}
	for i := 0; ; i++ {
		hit := find && i == st.Index
		if closer == '}' {
			key, err := l.ObjectKey()
			if err != nil {
				return false, err
			}
			hit = find && string(key) == st.Key
		}
		if hit {
			return true, nil
		}
		if err := skip(l, depth+1); err != nil {
			return false, err
		}
		if more, err := l.More(closer); err != nil || !more {
			return false, err
		}
	}
}

// skip consumes the value at l's offset, checking its structure.
func skip(l *jsonval.Lexer[[]byte], depth int) error {
	kind, err := textKind(l)
	switch {
	case err != nil:
	case kind == StringNode:
		_, err = l.ScanString()
	case kind == NumberNode:
		_, err = l.ScanNumber()
	default:
		_, err = seek(l, Step{}, false, depth)
	}
	return err
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
