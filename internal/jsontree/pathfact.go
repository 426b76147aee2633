package jsontree

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

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
// indices, skipping sibling values without decoding them, and tests
// the reached value's kind and, for a scalar Value, the number or the
// decoded string itself. It allocates nothing and builds no tree. On
// any text Parse accepts it agrees with Holds(Parse(doc)). Bytes it
// cannot read — a malformed value on the way, a truncated document —
// are an error, never a silent false; so are the facts it cannot
// decide on text alone, a negative index (which counts from the end)
// and a container Value. Text after the reached value is not read, so
// a document broken only there may still answer.
func (f PathFact) HoldsJSON(doc []byte) (bool, error) {
	if f.Value != nil && f.Value.Kind() != jsonval.Number && f.Value.Kind() != jsonval.String {
		return false, fmt.Errorf("jsontree: fact %s: container values are not checked on text", f)
	}
	s := textScan{b: doc}
	s.space()
	for _, st := range f.Steps {
		want := ObjectNode
		if !st.IsKey {
			if st.Index < 0 {
				return false, fmt.Errorf("jsontree: fact %s: negative indices are not checked on text", f)
			}
			want = ArrayNode
		}
		if kind, err := s.kind(); err != nil || kind != want {
			return false, err
		}
		if found, err := s.seek(st, true, 0); err != nil || !found {
			return false, err
		}
	}
	kind, err := s.kind()
	if err != nil {
		return false, err
	}
	if f.HasClass && kind != f.Class {
		return false, nil
	}
	if f.Value == nil {
		return true, nil
	}
	if f.Value.Kind() == jsonval.Number {
		if kind != NumberNode {
			return false, nil
		}
		n, err := s.number()
		return err == nil && n == f.Value.Num(), err
	}
	if kind != StringNode {
		return false, nil
	}
	return s.str(f.Value.Str(), true)
}

// textScan is HoldsJSON's cursor over one document's bytes. It accepts
// the token language of jsonval.Lexer — whitespace, strict UTF-8, the
// escape and surrogate rules, naturals without leading zeros within
// uint64 — and checks the structure of every value it skips, but
// decodes nothing into memory.
type textScan struct {
	b   []byte
	pos int
}

func (s *textScan) errorf(format string, args ...any) error {
	return &jsonval.SyntaxError{Offset: s.pos, Msg: fmt.Sprintf(format, args...)}
}

func (s *textScan) space() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// kind classifies the value starting at the cursor by its first byte.
func (s *textScan) kind() (Kind, error) {
	if s.pos >= len(s.b) {
		return 0, s.errorf("unexpected end of input, want a value")
	}
	switch c := s.b[s.pos]; {
	case c == '{':
		return ObjectNode, nil
	case c == '[':
		return ArrayNode, nil
	case c == '"':
		return StringNode, nil
	case c >= '0' && c <= '9':
		return NumberNode, nil
	}
	return 0, s.errorf("unexpected character %q, want a value", s.b[s.pos])
}

// more consumes what follows a member or element: a ',' (more) or the
// container's closer.
func (s *textScan) more(closer byte) (bool, error) {
	s.space()
	if s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ',':
			s.pos++
			s.space()
			return true, nil
		case closer:
			s.pos++
			return false, nil
		}
	}
	return false, s.errorf("want ',' or %q", closer)
}

// seek enters the object or array at the cursor and, when find is set,
// stops at the value of the member named st.Key or of element
// st.Index, reporting true. Otherwise — nothing to find, or no such
// member or element — it consumes the container whole, checking every
// value it skips. depth bounds the nesting as jsonval.MaxDepth bounds
// the parsers'.
func (s *textScan) seek(st Step, find bool, depth int) (bool, error) {
	if depth >= jsonval.MaxDepth {
		return false, s.errorf("nesting depth exceeds %d", jsonval.MaxDepth)
	}
	object := s.b[s.pos] == '{'
	closer := byte(']')
	if object {
		closer = '}'
	}
	s.pos++
	s.space()
	if s.pos < len(s.b) && s.b[s.pos] == closer {
		s.pos++
		return false, nil
	}
	for i := 0; ; i++ {
		hit := find && i == st.Index
		if object {
			if s.pos >= len(s.b) || s.b[s.pos] != '"' {
				return false, s.errorf("want object key string")
			}
			var err error
			if hit, err = s.str(st.Key, find); err != nil {
				return false, err
			}
			s.space()
			if s.pos >= len(s.b) || s.b[s.pos] != ':' {
				return false, s.errorf("want ':' after object key")
			}
			s.pos++
			s.space()
		}
		if hit {
			return true, nil
		}
		if err := s.skip(depth + 1); err != nil {
			return false, err
		}
		if more, err := s.more(closer); err != nil || !more {
			return false, err
		}
	}
}

// skip consumes the value at the cursor, checking its structure.
func (s *textScan) skip(depth int) error {
	kind, err := s.kind()
	switch {
	case err != nil:
	case kind == StringNode:
		_, err = s.str("", false)
	case kind == NumberNode:
		_, err = s.number()
	default:
		_, err = s.seek(Step{}, false, depth)
	}
	return err
}

// number consumes the natural number at the cursor.
func (s *textScan) number() (uint64, error) {
	start := s.pos
	var n uint64
	for s.pos < len(s.b) && s.b[s.pos] >= '0' && s.b[s.pos] <= '9' {
		d := uint64(s.b[s.pos] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, s.errorf("number out of range")
		}
		n = n*10 + d
		s.pos++
	}
	if s.pos < len(s.b) {
		switch s.b[s.pos] {
		case '.', 'e', 'E':
			return 0, s.errorf("fractional and exponent numbers are outside the paper's value model")
		}
	}
	if s.pos-start > 1 && s.b[start] == '0' {
		return 0, s.errorf("leading zeros are not permitted in numbers")
	}
	return n, nil
}

// str consumes the string literal at the cursor and, when compare is
// set, reports whether it decodes to exactly want — comparing as it
// decodes, so nothing is copied.
func (s *textScan) str(want string, compare bool) (bool, error) {
	s.pos++ // the opening quote
	eq, i := compare, 0
	// match compares the next decoded bytes against want.
	match := func(p []byte) {
		if eq {
			eq = i+len(p) <= len(want) && string(p) == want[i:i+len(p)]
			i += len(p)
		}
	}
	var enc [utf8.UTFMax]byte
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		switch {
		case c == '"':
			s.pos++
			return eq && i == len(want), nil
		case c == '\\':
			if s.pos+1 >= len(s.b) {
				return false, s.errorf("unterminated escape")
			}
			esc := s.b[s.pos+1]
			s.pos += 2
			switch esc {
			case '"', '\\', '/':
				enc[0] = esc
			case 'b':
				enc[0] = '\b'
			case 'f':
				enc[0] = '\f'
			case 'n':
				enc[0] = '\n'
			case 'r':
				enc[0] = '\r'
			case 't':
				enc[0] = '\t'
			case 'u':
				r, err := s.hex4()
				if err != nil {
					return false, err
				}
				if utf16.IsSurrogate(r) {
					if s.pos+1 >= len(s.b) || s.b[s.pos] != '\\' || s.b[s.pos+1] != 'u' {
						return false, s.errorf("unpaired surrogate in \\u escape")
					}
					s.pos += 2
					r2, err := s.hex4()
					if err != nil {
						return false, err
					}
					if r = utf16.DecodeRune(r, r2); r == utf8.RuneError {
						return false, s.errorf("invalid surrogate pair in \\u escape")
					}
				}
				match(enc[:utf8.EncodeRune(enc[:], r)])
				continue
			default:
				return false, s.errorf("invalid escape \\%c", esc)
			}
			match(enc[:1])
		case c < 0x20:
			return false, s.errorf("raw control character in string")
		case c < utf8.RuneSelf:
			match(s.b[s.pos : s.pos+1])
			s.pos++
		default:
			r, size := utf8.DecodeRune(s.b[s.pos:])
			if r == utf8.RuneError && size <= 1 {
				return false, s.errorf("invalid UTF-8 in string")
			}
			match(s.b[s.pos : s.pos+size])
			s.pos += size
		}
	}
	return false, s.errorf("unterminated string")
}

func (s *textScan) hex4() (rune, error) {
	if s.pos+4 > len(s.b) {
		return 0, s.errorf("truncated \\u escape")
	}
	var r rune
	for _, c := range s.b[s.pos : s.pos+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, s.errorf("invalid hex digit %q in \\u escape", c)
		}
	}
	s.pos += 4
	return r, nil
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
