package relang

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchBasics(t *testing.T) {
	tests := []struct {
		pattern string
		yes     []string
		no      []string
	}{
		{"abc", []string{"abc"}, []string{"", "ab", "abcd", "xabc"}},
		{"a*", []string{"", "a", "aaaa"}, []string{"b", "ab"}},
		{"a+", []string{"a", "aa"}, []string{"", "b"}},
		{"a?", []string{"", "a"}, []string{"aa"}},
		{"a|b", []string{"a", "b"}, []string{"", "ab", "c"}},
		{"(ab)*", []string{"", "ab", "abab"}, []string{"a", "aba"}},
		{"(01)+", []string{"01", "0101"}, []string{"", "0", "10", "011"}},
		{".", []string{"a", "0", "é", "😀"}, []string{"", "ab"}},
		{".*", []string{"", "anything at all"}, nil},
		{"[a-c]", []string{"a", "b", "c"}, []string{"d", "", "ab"}},
		{"[^a-c]", []string{"d", "z", "0"}, []string{"a", "b", "c", ""}},
		{"[abq-z]+", []string{"ab", "qz", "zzz"}, []string{"c", "p"}},
		{"a{3}", []string{"aaa"}, []string{"aa", "aaaa"}},
		{"a{2,4}", []string{"aa", "aaa", "aaaa"}, []string{"a", "aaaaa"}},
		{"a{2,}", []string{"aa", "aaaaaa"}, []string{"a", ""}},
		{`\d+`, []string{"0", "123"}, []string{"", "a", "1a"}},
		{`\w+`, []string{"abc_123"}, []string{"", "a b"}},
		{`a\.b`, []string{"a.b"}, []string{"axb"}},
		{`a(b|c)a`, []string{"aba", "aca"}, []string{"aa", "abca"}},
		{`[A-z]*@ciws\.cl`, []string{"john@ciws.cl", "@ciws.cl"}, []string{"john@ciws,cl", "john@ciwsxcl"}},
		{"", []string{""}, []string{"a"}},
		{"()", []string{""}, []string{"a"}},
		{"(a|)b", []string{"ab", "b"}, []string{"a"}},
	}
	for _, tc := range tests {
		re, err := Compile(tc.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.pattern, err)
			continue
		}
		for _, s := range tc.yes {
			if !re.Match(s) {
				t.Errorf("%q should match %q (NFA)", tc.pattern, s)
			}
			if !re.MatchDFA(s) {
				t.Errorf("%q should match %q (DFA)", tc.pattern, s)
			}
		}
		for _, s := range tc.no {
			if re.Match(s) {
				t.Errorf("%q should not match %q (NFA)", tc.pattern, s)
			}
			if re.MatchDFA(s) {
				t.Errorf("%q should not match %q (DFA)", tc.pattern, s)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "a)", "(a", "[", "[a", "*", "+a", "?", "a|*", `\q`, "[z-a]", `\u00g`, "a{4,2}", "a{1,999}"}
	for _, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q): expected error", p)
		}
	}
}

func TestBraceAsLiteralWhenNotRepeat(t *testing.T) {
	re := MustCompile("a{x}")
	if !re.Match("a{x}") || re.Match("a") {
		t.Error("non-numeric {x} should be literal")
	}
}

func TestLiteral(t *testing.T) {
	for _, w := range []string{"", "plain", "we.ird*chars+[]", "uni😀code"} {
		re := Literal(w)
		if !re.Match(w) {
			t.Errorf("Literal(%q) must match itself", w)
		}
		if re.Match(w+"x") || (w != "" && re.Match("")) {
			t.Errorf("Literal(%q) matched a different string", w)
		}
	}
}

func TestEmptinessUniversality(t *testing.T) {
	if !None().IsEmpty() || None().IsUniversal() {
		t.Error("None should be empty, not universal")
	}
	if Any().IsEmpty() || !Any().IsUniversal() {
		t.Error("Any should be universal, not empty")
	}
	if MustCompile("a*").IsUniversal() {
		t.Error("a* is not universal")
	}
	if MustCompile(".|.?.*").IsUniversal() != true {
		t.Error(".|.?.* should be universal (covers all lengths)")
	}
	// Intersection of disjoint languages is empty.
	inter := MustCompile("a+").Intersect(MustCompile("b+"))
	if !inter.IsEmpty() {
		t.Error("a+ ∩ b+ should be empty")
	}
}

// TestIsAnyStar pins the syntactic universality test: it recognises
// the star-over-Σ shapes, agrees with IsUniversal wherever it answers
// true, and never determinizes — a pattern whose DFA has ~2^25 states
// is answered without building one.
func TestIsAnyStar(t *testing.T) {
	for _, c := range []struct {
		re   *Regex
		want bool
	}{
		{Any(), true},
		{MustCompile(".*"), true},
		{MustCompile("(.*)*"), true},
		{MustCompile("(.|a)*"), true},
		{MustCompile("(a*|.)*"), true},
		{MustCompile(".*.*"), true},
		{MustCompile("a|.*"), true},
		{MustCompile("a*"), false},
		{MustCompile("k.*"), false},
		{MustCompile(".+"), false},
		{MustCompile("k0|k1"), false},
		{MustCompile(""), false},
		{None(), false},
		// Universal, but not by syntax: IsAnyStar is incomplete.
		{MustCompile(".|.?.*"), false},
		{None().Complement(), false},
	} {
		if got := c.re.IsAnyStar(); got != c.want {
			t.Errorf("%q.IsAnyStar() = %v, want %v", c.re, got, c.want)
		}
		if c.want && !c.re.IsUniversal() {
			t.Errorf("%q: IsAnyStar but not IsUniversal", c.re)
		}
	}
	huge := MustCompile("(.*a.{24})?")
	if huge.IsAnyStar() {
		t.Error("(.*a.{24})? is not Σ*")
	}
	if huge.min != nil {
		t.Error("IsAnyStar built the minimal DFA")
	}
}

func TestWitness(t *testing.T) {
	re := MustCompile("ab|abc")
	w, ok := re.Witness()
	if !ok || w != "ab" {
		t.Errorf("Witness = %q, want shortest ab", w)
	}
	if _, ok := None().Witness(); ok {
		t.Error("None has no witness")
	}
	w, ok = Any().Witness()
	if !ok || w != "" {
		t.Errorf("Any witness = %q, want empty string", w)
	}
	// Witness of the complement of a finite language.
	comp := Literal("a").Complement()
	w, ok = comp.Witness()
	if !ok || w == "a" || !comp.Match(w) {
		t.Errorf("complement witness = %q", w)
	}
}

func TestEnumerate(t *testing.T) {
	re := MustCompile("a|b|aa")
	got := re.Enumerate(10)
	if len(got) != 3 {
		t.Fatalf("Enumerate = %v, want 3 strings", got)
	}
	for _, s := range got {
		if !re.Match(s) {
			t.Errorf("enumerated %q is not in the language", s)
		}
	}
	if got[len(got)-1] != "aa" {
		t.Errorf("shortlex order expected, got %v", got)
	}
	inf := MustCompile("x*").Enumerate(5)
	if len(inf) != 5 {
		t.Errorf("Enumerate on infinite language = %d strings, want 5", len(inf))
	}
	seen := map[string]bool{}
	for _, s := range inf {
		if seen[s] {
			t.Errorf("duplicate enumerated string %q", s)
		}
		seen[s] = true
	}
}

func TestSetOperations(t *testing.T) {
	a := MustCompile("[ab]*")
	b := MustCompile("a*")
	if !a.Includes(b) {
		t.Error("[ab]* includes a*")
	}
	if b.Includes(a) {
		t.Error("a* does not include [ab]*")
	}
	if !a.Equiv(MustCompile("(a|b)*")) {
		t.Error("[ab]* ≡ (a|b)*")
	}
	minus := a.Minus(b)
	if minus.Match("aaa") || !minus.Match("ab") || minus.Match("") {
		t.Error("difference semantics wrong")
	}
	union := b.Union(MustCompile("b+"))
	if !union.Match("bb") || !union.Match("aa") || union.Match("ab") {
		t.Error("union semantics wrong")
	}
}

func TestComplementRoundTrip(t *testing.T) {
	re := MustCompile("(ab)+")
	cc := re.Complement().Complement()
	if !cc.Equiv(re) {
		t.Error("double complement should be equivalent")
	}
	for _, s := range []string{"", "ab", "abab", "a", "ba"} {
		if re.Match(s) == re.Complement().Match(s) {
			t.Errorf("complement must flip membership for %q", s)
		}
	}
}

func TestMinimalDFASizes(t *testing.T) {
	// Classic: (a|b)*a(a|b)^{n} needs 2^{n+1} states deterministically
	// over {a,b}; over full Σ one more dead state absorbs other runes.
	re := MustCompile("[ab]*a[ab][ab]")
	if got := re.NumDFAStates(); got != 9 {
		t.Errorf("minimal DFA for [ab]*a[ab][ab] has %d states, want 9", got)
	}
	// A fixed word of length n needs n+2 states (n+1 on the spine plus
	// the dead state).
	if got := Literal("abc").NumDFAStates(); got != 5 {
		t.Errorf("minimal DFA for literal abc has %d states, want 5", got)
	}
}

func TestUnicode(t *testing.T) {
	re := MustCompile("[α-ω]+")
	if !re.Match("αβγ") || re.Match("abc") {
		t.Error("greek class failed")
	}
	esc := MustCompile(`é+`)
	if !esc.Match("ééé") || esc.Match("e") {
		t.Error("unicode escape failed")
	}
}

// randPattern generates a random pattern over {a,b} with limited depth.
func randPattern(r *rand.Rand, depth int) string {
	if depth <= 0 {
		return string(rune('a' + r.Intn(2)))
	}
	switch r.Intn(6) {
	case 0:
		return randPattern(r, depth-1) + randPattern(r, depth-1)
	case 1:
		return "(" + randPattern(r, depth-1) + "|" + randPattern(r, depth-1) + ")"
	case 2:
		return "(" + randPattern(r, depth-1) + ")*"
	case 3:
		return "(" + randPattern(r, depth-1) + ")?"
	default:
		return string(rune('a' + r.Intn(2)))
	}
}

type patAndInput struct {
	pattern string
	input   string
}

func (patAndInput) Generate(r *rand.Rand, size int) reflect.Value {
	p := randPattern(r, 3)
	n := r.Intn(6)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + r.Intn(2)))
	}
	return reflect.ValueOf(patAndInput{p, sb.String()})
}

// TestQuickNFAvsDFA checks NFA simulation and the minimal DFA agree on
// membership for random patterns and inputs.
func TestQuickNFAvsDFA(t *testing.T) {
	f := func(pi patAndInput) bool {
		re, err := Compile(pi.pattern)
		if err != nil {
			return false
		}
		return re.Match(pi.input) == re.MatchDFA(pi.input)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestQuickComplement checks s ∈ L(e) xor s ∈ L(¬e).
func TestQuickComplement(t *testing.T) {
	f := func(pi patAndInput) bool {
		re, err := Compile(pi.pattern)
		if err != nil {
			return false
		}
		return re.Match(pi.input) != re.Complement().Match(pi.input)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersection checks product-automaton semantics pointwise.
func TestQuickIntersection(t *testing.T) {
	f := func(pi patAndInput, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p2 := randPattern(r, 3)
		re1, err1 := Compile(pi.pattern)
		re2, err2 := Compile(p2)
		if err1 != nil || err2 != nil {
			return false
		}
		inter := re1.Intersect(re2)
		uni := re1.Union(re2)
		s := pi.input
		return inter.Match(s) == (re1.Match(s) && re2.Match(s)) &&
			uni.Match(s) == (re1.Match(s) || re2.Match(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickWitnessIsMember: any witness produced is in the language.
func TestQuickWitnessIsMember(t *testing.T) {
	f := func(pi patAndInput) bool {
		re, err := Compile(pi.pattern)
		if err != nil {
			return false
		}
		w, ok := re.Witness()
		if !ok {
			return re.IsEmpty()
		}
		return re.Match(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestRuneSetOps(t *testing.T) {
	a := normalize([]runeRange{{'a', 'f'}, {'c', 'k'}})
	if len(a) != 1 || a[0] != (runeRange{'a', 'k'}) {
		t.Errorf("normalize merge failed: %v", a)
	}
	neg := a.negate()
	if neg.contains('c') || !neg.contains('z') || !neg.contains(0) {
		t.Error("negate failed")
	}
	if got := a.intersect(neg); !got.isEmpty() {
		t.Errorf("a ∩ ¬a = %v, want empty", got)
	}
	if u := a.union(neg); len(u) != 1 || u[0] != (runeRange{0, maxRune}) {
		t.Errorf("a ∪ ¬a = %v, want Σ", u)
	}
	r, ok := a.sample()
	if !ok || !a.contains(r) {
		t.Error("sample not in set")
	}
}

func TestEmptyClassIsRejectedGracefully(t *testing.T) {
	// [^\\u0000-\U0010FFFF]-style empty classes cannot be written in our
	// syntax, but the negation of a full class is empty; make sure an
	// empty-set classNode compiles to the empty language.
	re := fromAST("test", classNode{runeSet{}})
	if re.Match("") || re.Match("a") || !re.IsEmpty() {
		t.Error("empty class should accept nothing")
	}
}
