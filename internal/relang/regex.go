package relang

import (
	"slices"
	"strings"
	"sync"
)

// Regex is a compiled regular language over Σ*. Matching is full-string:
// Match(s) reports s ∈ L(e), the semantics used by the paper for
// Pattern(e) node tests and X_e axes. Regex values are immutable and safe
// for concurrent use.
type Regex struct {
	pattern string
	ast     node
	nfa     *nfa

	once sync.Once
	min  *dfa // minimized DFA, built lazily for language operations
}

// Compile parses and compiles a pattern. See parseAST for the supported
// syntax.
func Compile(pattern string) (*Regex, error) {
	ast, err := parseAST(pattern)
	if err != nil {
		return nil, err
	}
	return fromAST(pattern, ast), nil
}

// MustCompile is Compile but panics on error; for statically known
// patterns in tests and examples.
func MustCompile(pattern string) *Regex {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

// Literal returns the regex whose language is exactly {w}. It is used to
// embed the deterministic axes X_w of JNL into the non-deterministic
// framework, and never fails regardless of metacharacters in w.
func Literal(w string) *Regex {
	parts := make([]node, 0, len(w))
	for _, r := range w {
		parts = append(parts, classNode{singleRune(r)})
	}
	var ast node
	switch len(parts) {
	case 0:
		ast = epsNode{}
	case 1:
		ast = parts[0]
	default:
		ast = concatNode{parts}
	}
	return fromAST(escapeLiteral(w), ast)
}

// Any returns the regex for Σ* (matches every string).
func Any() *Regex {
	return fromAST(".*", starNode{classNode{anyRune}})
}

// None returns the regex for the empty language ∅.
func None() *Regex { return fromAST("∅", emptyNode{}) }

func fromAST(pattern string, ast node) *Regex {
	return &Regex{pattern: pattern, ast: ast, nfa: buildNFA(ast)}
}

func escapeLiteral(w string) string {
	var sb strings.Builder
	for _, r := range w {
		if strings.ContainsRune(`\.[](){}|*+?^$`, r) {
			sb.WriteByte('\\')
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// String returns the source pattern.
func (re *Regex) String() string { return re.pattern }

// Match reports whether s is in the language (full-string membership).
// It runs the NFA directly in O(|nfa|·|s|) without determinizing, so a
// first Match never pays an exponential subset-construction cost.
func (re *Regex) Match(s string) bool { return re.nfa.match(s) }

// dfaMin returns the lazily computed minimal DFA.
func (re *Regex) dfaMin() *dfa {
	re.once.Do(func() {
		re.min = determinize(re.nfa).minimize()
	})
	return re.min
}

// MatchDFA matches using the compiled minimal DFA: O(|s|) per call after
// a one-time determinization. The ablation benchmarks compare this
// against NFA simulation.
func (re *Regex) MatchDFA(s string) bool { return re.dfaMin().match(s) }

// IsEmpty reports L(e) = ∅.
func (re *Regex) IsEmpty() bool { return re.dfaMin().isEmpty() }

// IsUniversal reports L(e) = Σ*.
func (re *Regex) IsUniversal() bool { return re.dfaMin().complement().isEmpty() }

// IsAnyStar reports, from the syntax alone, that L(e) = Σ*: e is a
// star over an expression accepting every single rune (.*, (.|a)*,
// (.*)*), or a union containing such a star, or a concatenation of
// them. It is sound but incomplete — false does not rule out a
// universal language — and, unlike IsUniversal, it builds no automaton:
// it runs in time linear in the pattern, so it is safe to call on
// patterns taken from untrusted query text.
func (re *Regex) IsAnyStar() bool { return re.ast != nil && anyStar(re.ast) }

func anyStar(n node) bool {
	switch t := n.(type) {
	case starNode:
		return coversSigma(t.sub)
	case unionNode:
		return slices.ContainsFunc(t.parts, anyStar)
	case concatNode:
		return len(t.parts) > 0 && !slices.ContainsFunc(t.parts, func(p node) bool { return !anyStar(p) })
	}
	return false
}

// coversSigma reports, syntactically, Σ ⊆ L(n).
func coversSigma(n node) bool {
	switch t := n.(type) {
	case classNode:
		return slices.Equal(t.set, anyRune)
	case unionNode:
		return slices.ContainsFunc(t.parts, coversSigma)
	}
	return anyStar(n)
}

// Witness returns a shortest string in the language, or false if empty.
func (re *Regex) Witness() (string, bool) { return re.dfaMin().witness() }

// Enumerate returns up to max distinct strings of the language in
// shortlex order (shortest first).
func (re *Regex) Enumerate(max int) []string { return re.dfaMin().enumerate(max) }

// Complement returns a regex for Σ* \ L(e).
func (re *Regex) Complement() *Regex {
	return wrapDFA("¬("+re.pattern+")", re.dfaMin().complement())
}

// Intersect returns a regex for L(e) ∩ L(f).
func (re *Regex) Intersect(other *Regex) *Regex {
	d := product(re.dfaMin(), other.dfaMin(), func(x, y bool) bool { return x && y })
	return wrapDFA("("+re.pattern+")∩("+other.pattern+")", d.minimize())
}

// Union returns a regex for L(e) ∪ L(f).
func (re *Regex) Union(other *Regex) *Regex {
	d := product(re.dfaMin(), other.dfaMin(), func(x, y bool) bool { return x || y })
	return wrapDFA("("+re.pattern+")|("+other.pattern+")", d.minimize())
}

// Minus returns a regex for L(e) \ L(f).
func (re *Regex) Minus(other *Regex) *Regex {
	d := product(re.dfaMin(), other.dfaMin(), func(x, y bool) bool { return x && !y })
	return wrapDFA("("+re.pattern+")\\("+other.pattern+")", d.minimize())
}

// Includes reports L(other) ⊆ L(e).
func (re *Regex) Includes(other *Regex) bool {
	return product(other.dfaMin(), re.dfaMin(), func(x, y bool) bool { return x && !y }).isEmpty()
}

// Equiv reports L(e) = L(f).
func (re *Regex) Equiv(other *Regex) bool {
	return re.Includes(other) && other.Includes(re)
}

// NumDFAStates returns the number of states of the minimal DFA; exposed
// for tests and complexity experiments.
func (re *Regex) NumDFAStates() int { return re.dfaMin().numStates }

// wrapDFA builds a Regex directly over a DFA produced by a language
// operation. Matching uses the DFA; there is no NFA re-derivation.
func wrapDFA(pattern string, d *dfa) *Regex {
	re := &Regex{pattern: pattern, nfa: dfaToNFA(d)}
	re.once.Do(func() {})
	re.min = d
	return re
}

// dfaToNFA views a DFA as an NFA (needed so Match works uniformly).
func dfaToNFA(d *dfa) *nfa {
	a := &nfa{}
	for i := 0; i < d.numStates; i++ {
		a.newState()
	}
	accept := a.newState()
	k := len(d.symbols)
	for s := 0; s < d.numStates; s++ {
		// Group targets to merge classes into larger rune sets.
		byTarget := map[int][]runeRange{}
		for c := 0; c < k; c++ {
			to := d.trans[s*k+c]
			byTarget[to] = append(byTarget[to], d.symbols[c]...)
		}
		for to, ranges := range byTarget {
			a.addEdge(s, normalize(ranges), to)
		}
		if d.accepting[s] {
			a.addEps(s, accept)
		}
	}
	a.start = 0
	a.accept = accept
	return a
}
