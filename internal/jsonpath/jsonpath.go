// Package jsonpath implements the JSONPath query language of Gössner
// and Frank, the XPath-inspired JSON language the paper reviews in §4.1
// and cites as motivation for non-deterministic and recursive JNL.
// Expressions compile to binary JNL formulas: child steps become key or
// index axes, wildcards become the union of a key-regex axis and an
// array-interval axis, the recursive-descent step ".." becomes a Kleene
// star, slices become interval axes, and filters "[?(...)]" become JNL
// node tests. Evaluation is delegated to the JNL product evaluator
// (Proposition 3), so it inherits its O(|J|·|path|) bound.
//
// Supported syntax: $, .key, ['key'], [i] (negative = from the end),
// [i:j] (half-open, j omitted = to the end), .*, [*], ..key, ..*, and
// filters [?(@.path op literal)] with op one of ==, !=, <, <=, >, >=
// and bare existence [?(@.path)].
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"

	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/qir"
	"jsonlogic/internal/relang"
)

// Path is a compiled JSONPath expression.
type Path struct {
	source string
	binary jnl.Binary
}

// wildcard is the any-child step: any object edge or any array edge.
func wildcard() jnl.Binary {
	return jnl.Alt{
		Left:  jnl.RegexAxis{Re: relang.Any()},
		Right: jnl.RangeAxis{Lo: 0, Hi: jnl.Inf},
	}
}

// descendant is the ..: zero or more any-child steps.
func descendant() jnl.Binary { return jnl.Star{Inner: wildcard()} }

// Compile parses a JSONPath expression.
func Compile(src string) (*Path, error) {
	p := &pparser{in: src}
	b, err := p.parse()
	if err != nil {
		return nil, err
	}
	return &Path{source: src, binary: b}, nil
}

// MustCompile is Compile but panics on error.
func MustCompile(src string) *Path {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Binary returns the compiled JNL path.
func (p *Path) Binary() jnl.Binary { return p.binary }

// String returns the source expression.
func (p *Path) String() string { return p.source }

// Select returns the values selected by the path from the document, in
// document order.
func (p *Path) Select(doc *jsonval.Value) []*jsonval.Value {
	tr := jsontree.FromValue(doc)
	ev := jnl.NewEvaluator(tr)
	nodes := ev.Select(p.binary, tr.Root())
	out := make([]*jsonval.Value, len(nodes))
	for i, n := range nodes {
		out[i] = tr.Value(n)
	}
	return out
}

// SelectNodes returns the selected node ids of a pre-built tree.
func (p *Path) SelectNodes(tr *jsontree.Tree) []jsontree.NodeID {
	return jnl.NewEvaluator(tr).Select(p.binary, tr.Root())
}

type pparser struct {
	in  string
	pos int
}

func (p *pparser) errf(format string, args ...any) error {
	return fmt.Errorf("jsonpath: at offset %d of %q: %s", p.pos, p.in, fmt.Sprintf(format, args...))
}

func (p *pparser) parse() (jnl.Binary, error) {
	if p.pos >= len(p.in) || p.in[p.pos] != '$' {
		return nil, p.errf("a JSONPath must start with $")
	}
	p.pos++
	steps := []jnl.Binary{jnl.Epsilon{}}
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case '.':
			if strings.HasPrefix(p.in[p.pos:], "..") {
				p.pos += 2
				steps = append(steps, descendant())
				// ".." must be followed by a name, * or bracket.
				if p.pos < len(p.in) && p.in[p.pos] == '[' {
					continue
				}
				step, err := p.nameStep()
				if err != nil {
					return nil, err
				}
				steps = append(steps, step)
				continue
			}
			p.pos++
			step, err := p.nameStep()
			if err != nil {
				return nil, err
			}
			steps = append(steps, step)
		case '[':
			step, err := p.bracketStep()
			if err != nil {
				return nil, err
			}
			steps = append(steps, step)
		default:
			return nil, p.errf("unexpected %q", p.in[p.pos])
		}
	}
	return jnl.Seq(steps...), nil
}

func (p *pparser) nameStep() (jnl.Binary, error) {
	if p.pos < len(p.in) && p.in[p.pos] == '*' {
		p.pos++
		return wildcard(), nil
	}
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '.' && p.in[p.pos] != '[' {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errf("expected a member name")
	}
	return jnl.KeyAxis{Word: p.in[start:p.pos]}, nil
}

func (p *pparser) bracketStep() (jnl.Binary, error) {
	p.pos++ // consume '['
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, p.errf("unterminated bracket")
	}
	switch {
	case p.in[p.pos] == '*':
		p.pos++
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return wildcard(), nil
	case p.in[p.pos] == '\'':
		key, err := p.quoted()
		if err != nil {
			return nil, err
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return jnl.KeyAxis{Word: key}, nil
	case p.in[p.pos] == '?':
		return p.filterStep()
	default:
		return p.indexOrSlice()
	}
}

func (p *pparser) indexOrSlice() (jnl.Binary, error) {
	first, firstGiven, err := p.optInt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == ':' {
		p.pos++
		second, secondGiven, err := p.optInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		lo := 0
		if firstGiven {
			lo = first
		}
		hi := jnl.Inf
		if secondGiven {
			// JSONPath slices are half-open; the interval axis X_{i:j}
			// is inclusive.
			hi = second - 1
			if hi < lo {
				return nil, p.errf("empty slice %d:%d", lo, second)
			}
		}
		if lo < 0 {
			return nil, p.errf("negative slice bounds are not supported")
		}
		return jnl.RangeAxis{Lo: lo, Hi: hi}, nil
	}
	if !firstGiven {
		return nil, p.errf("expected an index")
	}
	if err := p.expect(']'); err != nil {
		return nil, err
	}
	return jnl.IndexAxis{Index: first}, nil
}

// filterStep parses [?(@.path op literal)] and [?(@.path)].
func (p *pparser) filterStep() (jnl.Binary, error) {
	p.pos++ // consume '?'
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != '@' {
		return nil, p.errf("filter must start with @")
	}
	p.pos++
	// Parse the @-relative path: a sequence of .name and [i] steps.
	var steps []jnl.Binary
	for p.pos < len(p.in) {
		if p.in[p.pos] == '.' {
			p.pos++
			start := p.pos
			for p.pos < len(p.in) && !strings.ContainsRune(".[)=!<> ", rune(p.in[p.pos])) {
				p.pos++
			}
			if p.pos == start {
				return nil, p.errf("expected a member name in filter")
			}
			steps = append(steps, jnl.KeyAxis{Word: p.in[start:p.pos]})
			continue
		}
		if p.in[p.pos] == '[' {
			p.pos++
			i, given, err := p.optInt()
			if err != nil || !given {
				return nil, p.errf("expected an index in filter")
			}
			if err := p.expect(']'); err != nil {
				return nil, err
			}
			steps = append(steps, jnl.IndexAxis{Index: i})
			continue
		}
		break
	}
	rel := jnl.Seq(steps...)
	p.skipSpace()
	// Bare existence? A filter step selects the array elements whose
	// relative path satisfies the condition: X_{0:∞} ∘ ⟨condition⟩.
	if p.pos < len(p.in) && p.in[p.pos] == ')' {
		p.pos++
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return filterElements(jnl.Exists{Path: rel}), nil
	}
	// Comparison operator.
	ops := []string{"==", "!=", "<=", ">=", "<", ">"}
	var op string
	for _, cand := range ops {
		if strings.HasPrefix(p.in[p.pos:], cand) {
			op = cand
			p.pos += len(cand)
			break
		}
	}
	if op == "" {
		return nil, p.errf("expected a comparison operator")
	}
	p.skipSpace()
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if err := p.expect(']'); err != nil {
		return nil, err
	}
	test, err := comparison(rel, op, lit)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	return filterElements(test), nil
}

// filterElements turns a node condition into a JSONPath filter step:
// move to each array element, keep those satisfying the condition.
func filterElements(cond jnl.Unary) jnl.Binary {
	return jnl.Concat{
		Left:  jnl.RangeAxis{Lo: 0, Hi: jnl.Inf},
		Right: jnl.Test{Inner: cond},
	}
}

// comparison builds the JNL test for @.rel op lit. Equality uses EQ;
// order comparisons on numbers enumerate the bounded side via EQ over
// the finite candidate set — JNL has no order predicate, so we reject
// unbounded order comparisons against non-numbers.
func comparison(rel jnl.Binary, op string, lit *jsonval.Value) (jnl.Unary, error) {
	switch op {
	case "==":
		return jnl.EQDoc{Path: rel, Doc: lit}, nil
	case "!=":
		// Exists and differs (JSONPath semantics: missing paths do not
		// match !=).
		return jnl.And{
			Left:  jnl.Exists{Path: rel},
			Right: jnl.Not{Inner: jnl.EQDoc{Path: rel, Doc: lit}},
		}, nil
	}
	if !lit.IsNumber() {
		return nil, fmt.Errorf("order comparison %s requires a number literal", op)
	}
	n := lit.Num()
	// The candidate set below a bound is finite in the natural-number
	// value model; order tests become finite disjunctions of EQ.
	disj := func(lo, hi uint64) jnl.Unary {
		if hi < lo {
			return jnl.Not{Inner: jnl.True{}}
		}
		if hi-lo > 4096 {
			hi = lo + 4096
		}
		var out jnl.Unary = jnl.EQDoc{Path: rel, Doc: jsonval.Num(lo)}
		for v := lo + 1; v <= hi; v++ {
			out = jnl.Or{Left: out, Right: jnl.EQDoc{Path: rel, Doc: jsonval.Num(v)}}
		}
		return out
	}
	switch op {
	case "<":
		if n == 0 {
			return jnl.Not{Inner: jnl.True{}}, nil
		}
		return disj(0, n-1), nil
	case "<=":
		return disj(0, n), nil
	case ">":
		return jnl.Exists{Path: jnl.Concat{Left: rel, Right: jnl.Test{Inner: numericGuardGE(n + 1)}}}, nil
	case ">=":
		return jnl.Exists{Path: jnl.Concat{Left: rel, Right: jnl.Test{Inner: numericGuardGE(n)}}}, nil
	}
	return nil, fmt.Errorf("unknown operator %s", op)
}

// numericGuardGE approximates "is a number ≥ n" in pure JNL, which has
// no kind or order predicates: the node must be a leaf (no object or
// array children, and not the empty containers {} or []) and must not
// equal any of the finitely many smaller naturals. The approximation is
// exact whenever the compared field holds a number — string leaves are
// the only over-approximation, documented in the package comment.
func numericGuardGE(n uint64) jnl.Unary {
	noChildren := jnl.AndAll(
		jnl.Not{Inner: jnl.Exists{Path: jnl.RangeAxis{Lo: 0, Hi: jnl.Inf}}},
		jnl.Not{Inner: jnl.Exists{Path: jnl.RegexAxis{Re: relang.Any()}}},
		jnl.Not{Inner: jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.MustObj()}},
		jnl.Not{Inner: jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.Arr()}},
	)
	out := noChildren
	hi := n
	if hi > 4096 {
		hi = 4096
	}
	for v := uint64(0); v < hi; v++ {
		out = jnl.And{Left: out, Right: jnl.Not{Inner: jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.Num(v)}}}
	}
	return out
}

func (p *pparser) skipSpace() {
	for p.pos < len(p.in) && p.in[p.pos] == ' ' {
		p.pos++
	}
}

func (p *pparser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *pparser) optInt() (int, bool, error) {
	p.skipSpace()
	start := p.pos
	if p.pos < len(p.in) && p.in[p.pos] == '-' {
		p.pos++
	}
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start || (p.pos == start+1 && p.in[start] == '-') {
		p.pos = start
		return 0, false, nil
	}
	n, err := strconv.Atoi(p.in[start:p.pos])
	if err != nil {
		return 0, false, p.errf("integer out of range")
	}
	return n, true, nil
}

func (p *pparser) quoted() (string, error) {
	p.pos++ // consume opening quote
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '\'' {
		p.pos++
	}
	if p.pos >= len(p.in) {
		return "", p.errf("unterminated string")
	}
	s := p.in[start:p.pos]
	p.pos++
	return s, nil
}

func (p *pparser) literal() (*jsonval.Value, error) {
	if p.pos < len(p.in) && p.in[p.pos] == '\'' {
		s, err := p.quoted()
		if err != nil {
			return nil, err
		}
		return jsonval.Str(s), nil
	}
	v, n, err := jsonval.ParsePrefix(p.in[p.pos:])
	if err != nil {
		return nil, p.errf("bad literal: %v", err)
	}
	p.pos += n
	return v, nil
}

// Lower translates the path into the unified query algebra: selection
// enumerates the compiled JNL path from the root, and matching ("does
// the path select anything") is its existential closure, so both
// semantics flow from one lowered structure. The JNL product evaluator
// remains the differential-test oracle.
func (p *Path) Lower() *qir.Query {
	sel := jnl.LowerBinary(p.binary)
	return &qir.Query{Pred: qir.Exists{Path: sel, Inner: qir.True{}}, Sel: sel}
}
