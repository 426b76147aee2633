// Package mongoq implements the filter argument of MongoDB's find
// function (§4.1 and Example 1 of the paper): a query language whose
// navigation conditions are JSON navigation instructions compared
// against constants. Filters are compiled into JSL formulas — the paper
// shows (Theorem 2) that this deterministic navigation lives in the
// common JNL/JSL fragment, and JSL's node tests additionally cover the
// ordered comparison operators ($gt, $lt, …) that JNL's EQ cannot.
//
// Supported operators: implicit equality, $eq, $ne, $gt, $gte, $lt,
// $lte, $in, $nin, $exists, $size, $type, field-level $not, and the
// logical combinators $and, $or, $nor, $not. Field paths use MongoDB dot notation; numeric
// segments address array elements.
package mongoq

import (
	"fmt"
	"strconv"
	"strings"

	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/qir"
)

// Filter is a compiled find filter.
type Filter struct {
	source  *jsonval.Value
	formula jsl.Formula
}

// Parse parses a filter document from JSON text and compiles it.
func Parse(input string) (*Filter, error) {
	v, err := jsonval.Parse(input)
	if err != nil {
		return nil, err
	}
	return FromValue(v)
}

// MustParse is Parse but panics on error.
func MustParse(input string) *Filter {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

// FromValue compiles a filter document.
func FromValue(v *jsonval.Value) (*Filter, error) {
	if !v.IsObject() {
		return nil, fmt.Errorf("mongoq: a filter must be an object, got %s", v.Kind())
	}
	formula, err := compileFilter(v)
	if err != nil {
		return nil, err
	}
	return &Filter{source: v, formula: formula}, nil
}

// Formula returns the JSL formula the filter compiles to.
func (f *Filter) Formula() jsl.Formula { return f.formula }

// String returns the source filter document.
func (f *Filter) String() string { return f.source.String() }

// Matches reports whether a document satisfies the filter.
func (f *Filter) Matches(doc *jsonval.Value) bool {
	tr := jsontree.FromValue(doc)
	ok, err := jsl.Holds(tr, f.formula)
	return err == nil && ok
}

// Collection is an in-memory collection of JSON documents with the find
// interface of §4.1 (filter argument only; for the projection argument
// see §6 of the paper, which leaves its semantics as future work).
type Collection struct {
	docs []*jsonval.Value
}

// NewCollection returns a collection over the given documents.
func NewCollection(docs ...*jsonval.Value) *Collection {
	return &Collection{docs: append([]*jsonval.Value(nil), docs...)}
}

// Insert appends documents to the collection.
func (c *Collection) Insert(docs ...*jsonval.Value) { c.docs = append(c.docs, docs...) }

// Len returns the number of documents.
func (c *Collection) Len() int { return len(c.docs) }

// Find returns the documents matching the filter, preserving insertion
// order, like db.collection.find(filter, {}).
func (c *Collection) Find(f *Filter) []*jsonval.Value {
	var out []*jsonval.Value
	for _, doc := range c.docs {
		if f.Matches(doc) {
			out = append(out, doc)
		}
	}
	return out
}

// compileFilter compiles a filter object: the conjunction of its
// member conditions.
func compileFilter(v *jsonval.Value) (jsl.Formula, error) {
	var parts []jsl.Formula
	for _, m := range v.Members() {
		switch m.Key {
		case "$and", "$or", "$nor":
			if !m.Value.IsArray() || m.Value.Len() == 0 {
				return nil, fmt.Errorf("mongoq: %s wants a non-empty array", m.Key)
			}
			var subs []jsl.Formula
			for _, e := range m.Value.Elems() {
				sub, err := compileFilter(e)
				if err != nil {
					return nil, err
				}
				subs = append(subs, sub)
			}
			switch m.Key {
			case "$and":
				parts = append(parts, jsl.AndAll(subs...))
			case "$or":
				parts = append(parts, jsl.OrAll(subs...))
			default: // $nor
				parts = append(parts, jsl.Not{Inner: jsl.OrAll(subs...)})
			}
		case "$not":
			sub, err := compileFilter(m.Value)
			if err != nil {
				return nil, err
			}
			parts = append(parts, jsl.Not{Inner: sub})
		default:
			if strings.HasPrefix(m.Key, "$") {
				return nil, fmt.Errorf("mongoq: unknown top-level operator %q", m.Key)
			}
			cond, err := compileFieldCondition(m.Key, m.Value)
			if err != nil {
				return nil, err
			}
			parts = append(parts, cond)
		}
	}
	return jsl.AndAll(parts...), nil
}

// compileFieldCondition compiles one field: condition pair. The
// condition is either an operator object ({$gt: 5, ...}) or a constant
// (implicit $eq).
func compileFieldCondition(path string, cond *jsonval.Value) (jsl.Formula, error) {
	if cond.IsObject() && hasOperatorKey(cond) {
		var parts []jsl.Formula
		for _, m := range cond.Members() {
			f, err := compileFieldOperator(path, m.Key, m.Value)
			if err != nil {
				return nil, err
			}
			parts = append(parts, f)
		}
		return jsl.AndAll(parts...), nil
	}
	// Implicit equality: Example 1's {name: {$eq: "Sue"}} and the
	// shorthand {name: "Sue"}.
	return navigate(path, jsl.EqDoc{Doc: cond})
}

func hasOperatorKey(v *jsonval.Value) bool {
	for _, m := range v.Members() {
		if strings.HasPrefix(m.Key, "$") {
			return true
		}
	}
	return false
}

// compileFieldOperator compiles one $op: operand pair of a field
// condition into a document-level formula. Most operators are
// existential ("the navigated value satisfies …"); $ne and $nin follow
// MongoDB's negated-existential semantics and also match documents where
// the path is absent; $exists: 0 matches only absent paths.
func compileFieldOperator(path, op string, operand *jsonval.Value) (jsl.Formula, error) {
	needNum := func() (uint64, error) {
		if !operand.IsNumber() {
			return 0, fmt.Errorf("mongoq: %s wants a number operand (the paper's value model orders only numbers)", op)
		}
		return operand.Num(), nil
	}
	existential := func(cond jsl.Formula) (jsl.Formula, error) { return navigate(path, cond) }
	switch op {
	case "$eq":
		return existential(jsl.EqDoc{Doc: operand})
	case "$not":
		// Field-level negation: {v: {$not: {$gt: 5}}} matches documents
		// where the positive condition fails, including when the path
		// is absent (MongoDB semantics).
		if !operand.IsObject() || !hasOperatorKey(operand) {
			return nil, fmt.Errorf("mongoq: $not wants an operator document, got %s", operand)
		}
		pos, err := compileFieldCondition(path, operand)
		if err != nil {
			return nil, err
		}
		return jsl.Not{Inner: pos}, nil
	case "$ne":
		pos, err := navigate(path, jsl.EqDoc{Doc: operand})
		if err != nil {
			return nil, err
		}
		return jsl.Not{Inner: pos}, nil
	case "$gt":
		n, err := needNum()
		if err != nil {
			return nil, err
		}
		return existential(jsl.And{Left: jsl.IsInt{}, Right: jsl.Min{I: n + 1}})
	case "$gte":
		n, err := needNum()
		if err != nil {
			return nil, err
		}
		return existential(jsl.And{Left: jsl.IsInt{}, Right: jsl.Min{I: n}})
	case "$lt":
		n, err := needNum()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return jsl.False(), nil
		}
		return existential(jsl.And{Left: jsl.IsInt{}, Right: jsl.Max{I: n - 1}})
	case "$lte":
		n, err := needNum()
		if err != nil {
			return nil, err
		}
		return existential(jsl.And{Left: jsl.IsInt{}, Right: jsl.Max{I: n}})
	case "$in", "$nin":
		if !operand.IsArray() || operand.Len() == 0 {
			return nil, fmt.Errorf("mongoq: %s wants a non-empty array", op)
		}
		var alts []jsl.Formula
		for _, e := range operand.Elems() {
			alts = append(alts, jsl.EqDoc{Doc: e})
		}
		pos, err := navigate(path, jsl.OrAll(alts...))
		if err != nil {
			return nil, err
		}
		if op == "$nin" {
			return jsl.Not{Inner: pos}, nil
		}
		return pos, nil
	case "$exists":
		if !operand.IsNumber() || operand.Num() > 1 {
			return nil, fmt.Errorf("mongoq: $exists wants 1 or 0 in the boolean-free value model")
		}
		if operand.Num() == 1 {
			return existential(jsl.True{})
		}
		return navigateAbsent(path)
	case "$size":
		n, err := needNum()
		if err != nil {
			return nil, err
		}
		k := int(n)
		return existential(jsl.AndAll(jsl.IsArr{}, jsl.MinCh{K: k}, jsl.MaxCh{K: k}))
	case "$type":
		if !operand.IsString() {
			return nil, fmt.Errorf("mongoq: $type wants a type name string")
		}
		switch operand.Str() {
		case "string":
			return existential(jsl.IsStr{})
		case "number":
			return existential(jsl.IsInt{})
		case "object":
			return existential(jsl.IsObj{})
		case "array":
			return existential(jsl.IsArr{})
		default:
			return nil, fmt.Errorf("mongoq: unknown $type %q", operand.Str())
		}
	default:
		return nil, fmt.Errorf("mongoq: unknown operator %q", op)
	}
}

// navigate wraps a node condition in the modalities of a dotted path:
// a.0.b becomes ◇_a ◇_{0:0} ◇_b cond (navigation instructions of §2).
func navigate(path string, cond jsl.Formula) (jsl.Formula, error) {
	segs, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	out := cond
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].isIndex {
			out = jsl.DiaAt(segs[i].index, out)
		} else {
			out = jsl.DiaWord(segs[i].key, out)
		}
	}
	return out, nil
}

// navigateAbsent builds the condition "the dotted path has no value":
// the last step must be absent whenever the prefix is present.
func navigateAbsent(path string) (jsl.Formula, error) {
	segs, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	last := segs[len(segs)-1]
	var absent jsl.Formula
	if last.isIndex {
		absent = jsl.Not{Inner: jsl.DiaAt(last.index, jsl.True{})}
	} else {
		absent = jsl.Not{Inner: jsl.DiaWord(last.key, jsl.True{})}
	}
	out := absent
	for i := len(segs) - 2; i >= 0; i-- {
		// The path is absent if the prefix is absent or leads to a node
		// where the remainder is absent: ◻ captures both.
		if segs[i].isIndex {
			out = jsl.BoxAt(segs[i].index, out)
		} else {
			out = jsl.BoxWord(segs[i].key, out)
		}
	}
	return out, nil
}

type pathSeg struct {
	key     string
	index   int
	isIndex bool
}

func splitPath(path string) ([]pathSeg, error) {
	if path == "" {
		return nil, fmt.Errorf("mongoq: empty field path")
	}
	var segs []pathSeg
	for _, part := range strings.Split(path, ".") {
		if part == "" {
			return nil, fmt.Errorf("mongoq: empty segment in path %q", path)
		}
		if i, err := strconv.Atoi(part); err == nil && i >= 0 {
			segs = append(segs, pathSeg{index: i, isIndex: true})
		} else {
			segs = append(segs, pathSeg{key: part})
		}
	}
	return segs, nil
}

// Lower translates the filter into the unified query algebra by
// lowering its JSL compilation — Theorem 2's observation that mongo
// navigation lives in the common core, made operational. The JSL
// evaluator remains the differential-test oracle.
func (f *Filter) Lower() *qir.Query {
	return &qir.Query{Pred: jsl.Lower(f.formula)}
}
