// Package jsl implements the JSON Schema Logic of §5.2 of the paper: a
// modal logic over JSON trees whose atomic predicates (NodeTests) mirror
// the JSON Schema keywords of Table 1, and whose modalities ◇_e, ◇_{i:j},
// ◻_e, ◻_{i:j} mirror the navigation keywords properties,
// patternProperties, additionalProperties, required, items and
// additionalItems. The package also implements recursive JSL (§5.3):
// definitions γ_i = φ_i with a base expression, the precedence graph and
// well-formedness check, the unfold_J reference semantics, and the
// bottom-up PTIME evaluation algorithm of Proposition 9.
//
// One deliberate deviation from the paper's text: the paper defines
// Min(i)/Max(i) as strict comparisons but translates JSON Schema's
// inclusive "minimum"/"maximum" to them directly; we make Min/Max
// inclusive (≥ / ≤) so that Theorem 1's translation is exact.
package jsl

import (
	"fmt"
	"strconv"
	"strings"

	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
)

// Formula is a JSL formula. Formulas are immutable.
type Formula interface {
	isFormula()
	writeTo(sb *strings.Builder)
}

// Inf is the open upper bound +∞ for index modalities.
const Inf = int(^uint(0) >> 1)

// ---- Boolean structure ----

// True is ⊤.
type True struct{}

// Not is ¬φ.
type Not struct{ Inner Formula }

// And is φ ∧ ψ.
type And struct{ Left, Right Formula }

// Or is φ ∨ ψ.
type Or struct{ Left, Right Formula }

// ---- NodeTests (§5.2) ----

// IsArr tests n ∈ Arr.
type IsArr struct{}

// IsObj tests n ∈ Obj.
type IsObj struct{}

// IsStr tests n ∈ Str.
type IsStr struct{}

// IsInt tests n ∈ Int.
type IsInt struct{}

// Unique tests that n is an array whose children are pairwise distinct
// JSON values (the uniqueItems keyword).
type Unique struct{}

// Pattern tests that val(n) is a string in L(e).
type Pattern struct{ Re *relang.Regex }

// Min tests that val(n) is a number ≥ I.
type Min struct{ I uint64 }

// Max tests that val(n) is a number ≤ I.
type Max struct{ I uint64 }

// MultOf tests that val(n) is a number that is a multiple of I.
type MultOf struct{ I uint64 }

// MinCh tests that n has at least K children (minProperties for
// objects; also meaningful on arrays).
type MinCh struct{ K int }

// MaxCh tests that n has at most K children.
type MaxCh struct{ K int }

// EqDoc is the node test ~(A): json(n) = A.
type EqDoc struct{ Doc *jsonval.Value }

// ---- Modalities ----

// DiamondKey is ◇_e φ: some O-edge with key in L(e) leads to a node
// satisfying φ. Word/IsWord record the deterministic fragment ◇_w.
type DiamondKey struct {
	Re     *relang.Regex
	Word   string // set when IsWord
	IsWord bool
	Inner  Formula
}

// BoxKey is ◻_e φ: every O-edge with key in L(e) leads to a node
// satisfying φ (vacuously true when there are none).
type BoxKey struct {
	Re     *relang.Regex
	Word   string
	IsWord bool
	Inner  Formula
}

// DiamondIdx is ◇_{i:j} φ over A-edges; Hi = Inf means +∞.
type DiamondIdx struct {
	Lo, Hi int
	Inner  Formula
}

// BoxIdx is ◻_{i:j} φ over A-edges.
type BoxIdx struct {
	Lo, Hi int
	Inner  Formula
}

// Ref is an occurrence of a defined symbol γ (recursive JSL, §5.3).
type Ref struct{ Name string }

func (True) isFormula()       {}
func (Not) isFormula()        {}
func (And) isFormula()        {}
func (Or) isFormula()         {}
func (IsArr) isFormula()      {}
func (IsObj) isFormula()      {}
func (IsStr) isFormula()      {}
func (IsInt) isFormula()      {}
func (Unique) isFormula()     {}
func (Pattern) isFormula()    {}
func (Min) isFormula()        {}
func (Max) isFormula()        {}
func (MultOf) isFormula()     {}
func (MinCh) isFormula()      {}
func (MaxCh) isFormula()      {}
func (EqDoc) isFormula()      {}
func (DiamondKey) isFormula() {}
func (BoxKey) isFormula()     {}
func (DiamondIdx) isFormula() {}
func (BoxIdx) isFormula()     {}
func (Ref) isFormula()        {}

// ---- Convenience constructors ----

// False is ¬⊤ (the ⊥ used when unfolding runs out of height).
func False() Formula { return Not{True{}} }

// DiaWord returns ◇_w φ, the deterministic diamond.
func DiaWord(w string, inner Formula) Formula {
	return DiamondKey{Re: relang.Literal(w), Word: w, IsWord: true, Inner: inner}
}

// BoxWord returns ◻_w φ, the deterministic box.
func BoxWord(w string, inner Formula) Formula {
	return BoxKey{Re: relang.Literal(w), Word: w, IsWord: true, Inner: inner}
}

// DiaRe returns ◇_e φ for a compiled regex.
func DiaRe(re *relang.Regex, inner Formula) Formula {
	return DiamondKey{Re: re, Inner: inner}
}

// BoxRe returns ◻_e φ for a compiled regex.
func BoxRe(re *relang.Regex, inner Formula) Formula {
	return BoxKey{Re: re, Inner: inner}
}

// DiaAt returns ◇_{i:i} φ, the deterministic array diamond.
func DiaAt(i int, inner Formula) Formula { return DiamondIdx{Lo: i, Hi: i, Inner: inner} }

// BoxAt returns ◻_{i:i} φ.
func BoxAt(i int, inner Formula) Formula { return BoxIdx{Lo: i, Hi: i, Inner: inner} }

// AndAll conjoins formulas; AndAll() is ⊤.
func AndAll(parts ...Formula) Formula {
	if len(parts) == 0 {
		return True{}
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = And{out, p}
	}
	return out
}

// OrAll disjoins formulas; OrAll() is ⊥.
func OrAll(parts ...Formula) Formula {
	if len(parts) == 0 {
		return False()
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = Or{out, p}
	}
	return out
}

// ---- Recursive JSL (§5.3) ----

// Definition is one equation γ = φ of a recursive JSL expression.
type Definition struct {
	Name string
	Body Formula
}

// Recursive is a recursive JSL expression: a list of definitions and a
// base expression, per display (1) of §5.3. A Recursive with no
// definitions is an ordinary JSL formula.
type Recursive struct {
	Defs []Definition
	Base Formula
}

// NonRecursive wraps a plain formula as a Recursive with no definitions.
func NonRecursive(f Formula) *Recursive { return &Recursive{Base: f} }

// Def looks up a definition body by name.
func (r *Recursive) Def(name string) (Formula, bool) {
	for _, d := range r.Defs {
		if d.Name == name {
			return d.Body, true
		}
	}
	return nil, false
}

// PrecedenceGraph returns the adjacency list of the precedence graph of
// §5.3: an edge γi → γj when γj occurs in the body of γi outside the
// scope of any modal operator.
func (r *Recursive) PrecedenceGraph() map[string][]string {
	g := make(map[string][]string, len(r.Defs))
	for _, d := range r.Defs {
		seen := map[string]bool{}
		collectUnguardedRefs(d.Body, seen)
		var out []string
		for _, d2 := range r.Defs {
			if seen[d2.Name] {
				out = append(out, d2.Name)
			}
		}
		g[d.Name] = out
	}
	return g
}

// collectUnguardedRefs records refs not under a modal operator.
func collectUnguardedRefs(f Formula, out map[string]bool) {
	switch t := f.(type) {
	case Ref:
		out[t.Name] = true
	case Not:
		collectUnguardedRefs(t.Inner, out)
	case And:
		collectUnguardedRefs(t.Left, out)
		collectUnguardedRefs(t.Right, out)
	case Or:
		collectUnguardedRefs(t.Left, out)
		collectUnguardedRefs(t.Right, out)
		// Modal operators guard their contents: recursion stops here.
	}
}

// WellFormed reports whether the precedence graph is acyclic (the
// well-formedness condition of §5.3) and, if not, returns a cycle
// description. It also verifies every Ref resolves to a definition.
func (r *Recursive) WellFormed() error {
	defined := map[string]bool{}
	for _, d := range r.Defs {
		if defined[d.Name] {
			return fmt.Errorf("jsl: duplicate definition of %s", d.Name)
		}
		defined[d.Name] = true
	}
	var undef error
	check := func(f Formula) {
		walkRefs(f, func(name string) {
			if !defined[name] && undef == nil {
				undef = fmt.Errorf("jsl: reference to undefined symbol %s", name)
			}
		})
	}
	for _, d := range r.Defs {
		check(d.Body)
	}
	check(r.Base)
	if undef != nil {
		return undef
	}
	g := r.PrecedenceGraph()
	// DFS cycle detection.
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[string]int{}
	var visit func(string) error
	visit = func(n string) error {
		switch state[n] {
		case inStack:
			return fmt.Errorf("jsl: precedence graph has a cycle through %s (ill-formed recursion)", n)
		case done:
			return nil
		}
		state[n] = inStack
		for _, m := range g[n] {
			if err := visit(m); err != nil {
				return err
			}
		}
		state[n] = done
		return nil
	}
	for _, d := range r.Defs {
		if err := visit(d.Name); err != nil {
			return err
		}
	}
	return nil
}

// walkRefs calls fn for every Ref in the formula, guarded or not.
func walkRefs(f Formula, fn func(string)) {
	switch t := f.(type) {
	case Ref:
		fn(t.Name)
	case Not:
		walkRefs(t.Inner, fn)
	case And:
		walkRefs(t.Left, fn)
		walkRefs(t.Right, fn)
	case Or:
		walkRefs(t.Left, fn)
		walkRefs(t.Right, fn)
	case DiamondKey:
		walkRefs(t.Inner, fn)
	case BoxKey:
		walkRefs(t.Inner, fn)
	case DiamondIdx:
		walkRefs(t.Inner, fn)
	case BoxIdx:
		walkRefs(t.Inner, fn)
	}
}

// Size returns the number of AST nodes of the formula.
func Size(f Formula) int {
	n := 1
	switch t := f.(type) {
	case Not:
		n += Size(t.Inner)
	case And:
		n += Size(t.Left) + Size(t.Right)
	case Or:
		n += Size(t.Left) + Size(t.Right)
	case DiamondKey:
		n += Size(t.Inner)
	case BoxKey:
		n += Size(t.Inner)
	case DiamondIdx:
		n += Size(t.Inner)
	case BoxIdx:
		n += Size(t.Inner)
	}
	return n
}

// ---- Rendering ----

func (True) writeTo(sb *strings.Builder)  { sb.WriteString("true") }
func (IsArr) writeTo(sb *strings.Builder) { sb.WriteString("array") }
func (IsObj) writeTo(sb *strings.Builder) { sb.WriteString("object") }
func (IsStr) writeTo(sb *strings.Builder) { sb.WriteString("string") }
func (IsInt) writeTo(sb *strings.Builder) { sb.WriteString("number") }
func (Unique) writeTo(sb *strings.Builder) {
	sb.WriteString("unique")
}

func (n Not) writeTo(sb *strings.Builder) {
	sb.WriteByte('!')
	writeAtom(sb, n.Inner)
}

func (a And) writeTo(sb *strings.Builder) {
	writeAtom(sb, a.Left)
	sb.WriteString(" && ")
	writeAtom(sb, a.Right)
}

func (o Or) writeTo(sb *strings.Builder) {
	writeAtom(sb, o.Left)
	sb.WriteString(" || ")
	writeAtom(sb, o.Right)
}

func (p Pattern) writeTo(sb *strings.Builder) {
	fmt.Fprintf(sb, "pattern(%s)", strconv.Quote(p.Re.String()))
}

func (m Min) writeTo(sb *strings.Builder)    { fmt.Fprintf(sb, "min(%d)", m.I) }
func (m Max) writeTo(sb *strings.Builder)    { fmt.Fprintf(sb, "max(%d)", m.I) }
func (m MultOf) writeTo(sb *strings.Builder) { fmt.Fprintf(sb, "multOf(%d)", m.I) }
func (m MinCh) writeTo(sb *strings.Builder)  { fmt.Fprintf(sb, "minch(%d)", m.K) }
func (m MaxCh) writeTo(sb *strings.Builder)  { fmt.Fprintf(sb, "maxch(%d)", m.K) }

func (e EqDoc) writeTo(sb *strings.Builder) {
	sb.WriteString("eq(")
	sb.WriteString(e.Doc.String())
	sb.WriteByte(')')
}

func (d DiamondKey) writeTo(sb *strings.Builder) {
	writeModal(sb, "some", d.Re, d.Word, d.IsWord, -1, -1, d.Inner)
}
func (b BoxKey) writeTo(sb *strings.Builder) {
	writeModal(sb, "all", b.Re, b.Word, b.IsWord, -1, -1, b.Inner)
}
func (d DiamondIdx) writeTo(sb *strings.Builder) {
	writeModal(sb, "some", nil, "", false, d.Lo, d.Hi, d.Inner)
}
func (b BoxIdx) writeTo(sb *strings.Builder) {
	writeModal(sb, "all", nil, "", false, b.Lo, b.Hi, b.Inner)
}

func (r Ref) writeTo(sb *strings.Builder) { sb.WriteString(r.Name) }

func writeModal(sb *strings.Builder, op string, re *relang.Regex, word string, isWord bool, lo, hi int, inner Formula) {
	sb.WriteString(op)
	sb.WriteByte('(')
	switch {
	case re != nil && isWord:
		sb.WriteString(strconv.Quote(word))
	case re != nil:
		sb.WriteByte('~')
		sb.WriteString(strconv.Quote(re.String()))
	default:
		fmt.Fprintf(sb, "[%d:", lo)
		if hi != Inf {
			sb.WriteString(strconv.Itoa(hi))
		}
		sb.WriteByte(']')
	}
	sb.WriteString(", ")
	inner.writeTo(sb)
	sb.WriteByte(')')
}

func writeAtom(sb *strings.Builder, f Formula) {
	switch f.(type) {
	case And, Or:
		sb.WriteByte('(')
		f.writeTo(sb)
		sb.WriteByte(')')
	default:
		f.writeTo(sb)
	}
}

// String renders the formula in the concrete syntax of Parse.
func String(f Formula) string {
	var sb strings.Builder
	f.writeTo(&sb)
	return sb.String()
}

// String renders the recursive expression: definitions then base.
func (r *Recursive) String() string {
	var sb strings.Builder
	for _, d := range r.Defs {
		sb.WriteString("def ")
		sb.WriteString(d.Name)
		sb.WriteString(" = ")
		d.Body.writeTo(&sb)
		sb.WriteString(" ;\n")
	}
	r.Base.writeTo(&sb)
	return sb.String()
}
