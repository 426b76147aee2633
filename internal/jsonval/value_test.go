package jsonval

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// figure1 is the JSON document of Figure 1 of the paper.
const figure1 = `{
	"name": {
		"first": "John",
		"last": "Doe"
	},
	"age": 32,
	"hobbies": ["fishing","yoga"]
}`

func TestParseFigure1(t *testing.T) {
	v, err := Parse(figure1)
	if err != nil {
		t.Fatalf("Parse(figure1): %v", err)
	}
	if v.Kind() != Object {
		t.Fatalf("kind = %v, want object", v.Kind())
	}
	name, ok := v.Member("name")
	if !ok || name.Kind() != Object {
		t.Fatalf("name member missing or not object")
	}
	first, ok := name.Member("first")
	if !ok || first.Str() != "John" {
		t.Errorf("name.first = %v, want John", first)
	}
	age, ok := v.Member("age")
	if !ok || age.Num() != 32 {
		t.Errorf("age = %v, want 32", age)
	}
	hobbies, ok := v.Member("hobbies")
	if !ok || hobbies.Kind() != Array || hobbies.Len() != 2 {
		t.Fatalf("hobbies = %v, want 2-element array", hobbies)
	}
	second, ok := hobbies.Elem(1)
	if !ok || second.Str() != "yoga" {
		t.Errorf("hobbies[1] = %v, want yoga", second)
	}
	last, ok := hobbies.Elem(-1)
	if !ok || last.Str() != "yoga" {
		t.Errorf("hobbies[-1] = %v, want yoga", last)
	}
	if _, ok := hobbies.Elem(2); ok {
		t.Errorf("hobbies[2] unexpectedly present")
	}
	if v.Size() != 8 {
		t.Errorf("Size = %d, want 8 (as counted in §3.1 plus array nodes)", v.Size())
	}
	if v.Height() != 2 {
		t.Errorf("Height = %d, want 2", v.Height())
	}
}

func TestParseScalars(t *testing.T) {
	tests := []struct {
		in   string
		kind Kind
	}{
		{`0`, Number},
		{`42`, Number},
		{`18446744073709551615`, Number},
		{`""`, String},
		{`"hello"`, String},
		{`"A\n\t\\\""`, String},
		{`"😀"`, String}, // surrogate pair
		{`{}`, Object},
		{`[]`, Array},
		{`[[],{},0,""]`, Array},
	}
	for _, tc := range tests {
		v, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if v.Kind() != tc.kind {
			t.Errorf("Parse(%q).Kind = %v, want %v", tc.in, v.Kind(), tc.kind)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	v := MustParse(`"ABé"`)
	if v.Str() != "ABé" {
		t.Errorf("got %q, want ABé", v.Str())
	}
	if got := MustParse(`"😀"`).Str(); got != "😀" {
		t.Errorf("surrogate pair = %q, want 😀", got)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		in      string
		wantSub string
	}{
		{``, "unexpected end"},
		{`tru`, "boolean"},
		{`true`, "boolean"},
		{`false`, "boolean"},
		{`null`, "null"},
		{`-1`, "negative"},
		{`1.5`, "fractional"},
		{`1e3`, "fractional"},
		{`01`, "leading zero"},
		{`{"a":1,"a":2}`, "duplicate key"},
		{`{"a":1`, "unterminated object"},
		{`[1,2`, "unterminated array"},
		{`"abc`, "unterminated string"},
		{`{"a" 1}`, "want ':'"},
		{`{1:2}`, "want object key"},
		{`[1 2]`, "want ','"},
		{`{} {}`, "trailing"},
		{`"\q"`, "invalid escape"},
		{`"\u00g0"`, "invalid hex"},
		{"\"a\x01b\"", "control character"},
		{`18446744073709551616`, "out of range"},
		{"\"\xff\"", "invalid UTF-8"},
		{"\"caf\xc3\"", "invalid UTF-8"},
		{"{\"k\x80\":1}", "invalid UTF-8"},
		{"\"\xed\xa0\x80\"", "invalid UTF-8"}, // a surrogate, UTF-8 encoded
	}
	for _, tc := range tests {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", tc.in, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", tc.in, err, tc.wantSub)
		}
	}
}

func TestObjDuplicateKey(t *testing.T) {
	_, err := Obj(Member{"a", Num(1)}, Member{"a", Num(2)})
	if err == nil {
		t.Fatal("Obj with duplicate keys: expected error")
	}
}

func TestEqualUnorderedObjects(t *testing.T) {
	a := MustParse(`{"x":1,"y":[2,3],"z":{"a":"b"}}`)
	b := MustParse(`{"z":{"a":"b"},"y":[2,3],"x":1}`)
	if !Equal(a, b) {
		t.Error("objects differing only in member order must be Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("hashes must agree for reordered objects")
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ: %s vs %s", a.Canonical(), b.Canonical())
	}
}

func TestEqualArraysAreOrdered(t *testing.T) {
	a := MustParse(`[1,2]`)
	b := MustParse(`[2,1]`)
	if Equal(a, b) {
		t.Error("arrays with different element order must not be Equal")
	}
}

func TestNotEqual(t *testing.T) {
	cases := [][2]string{
		{`1`, `2`},
		{`1`, `"1"`},
		{`{}`, `[]`},
		{`{"a":1}`, `{"a":2}`},
		{`{"a":1}`, `{"b":1}`},
		{`{"a":1}`, `{"a":1,"b":2}`},
		{`[1]`, `[1,1]`},
		{`[[1]]`, `[[2]]`},
	}
	for _, c := range cases {
		a, b := MustParse(c[0]), MustParse(c[1])
		if Equal(a, b) {
			t.Errorf("Equal(%s, %s) = true, want false", c[0], c[1])
		}
		if EqualNaive(a, b) {
			t.Errorf("EqualNaive(%s, %s) = true, want false", c[0], c[1])
		}
	}
}

// RandomValue builds a pseudorandom value with roughly the given number of
// nodes; exported via test helper for use by quick checks here.
func randomValue(r *rand.Rand, depth int) *Value {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return Num(uint64(r.Intn(100)))
		}
		return Str(randKey(r))
	}
	switch r.Intn(4) {
	case 0:
		return Num(uint64(r.Intn(1000)))
	case 1:
		return Str(randKey(r))
	case 2:
		n := r.Intn(4)
		elems := make([]*Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return Arr(elems...)
	default:
		n := r.Intn(4)
		members := make([]Member, 0, n)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			k := randKey(r)
			if seen[k] {
				continue
			}
			seen[k] = true
			members = append(members, Member{k, randomValue(r, depth-1)})
		}
		return MustObj(members...)
	}
}

func randKey(r *rand.Rand) string {
	letters := "abcdefgh"
	n := 1 + r.Intn(5)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(letters[r.Intn(len(letters))])
	}
	return sb.String()
}

// Generate implements quick.Generator so random Values can be drawn by
// testing/quick property checks.
func (*Value) Generate(r *rand.Rand, size int) reflect.Value {
	d := size % 5
	return reflect.ValueOf(randomValue(r, d))
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(v *Value) bool {
		parsed, err := Parse(v.String())
		if err != nil {
			t.Logf("reparse error on %s: %v", v, err)
			return false
		}
		return Equal(v, parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalRoundTrip(t *testing.T) {
	f := func(v *Value) bool {
		parsed, err := Parse(v.Canonical())
		return err == nil && Equal(v, parsed) && parsed.Canonical() == v.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickIndentRoundTrip(t *testing.T) {
	f := func(v *Value) bool {
		parsed, err := Parse(v.Indent("  "))
		return err == nil && Equal(v, parsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualReflexiveAndHash(t *testing.T) {
	f := func(v *Value) bool {
		return Equal(v, v) && v.Hash() == MustParse(v.String()).Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualMatchesNaive(t *testing.T) {
	f := func(a, b *Value) bool {
		return Equal(a, b) == EqualNaive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSizeHeight(t *testing.T) {
	f := func(v *Value) bool {
		return v.Size() >= 1 && v.Height() >= 0 && v.Height() < v.Size()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringEscaping(t *testing.T) {
	v := Str("a\"b\\c\nd\te")
	got := v.String()
	want := `"a\"b\\c\nd\te"`
	if got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if !Equal(MustParse(got), v) {
		t.Error("escaped string does not round-trip")
	}
}

// referenceQuoted is the rune-at-a-time quoting AppendQuoted replaced,
// kept as the oracle its byte-run implementation is pinned against.
func referenceQuoted(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&sb, `\u%04x`, r)
			} else {
				sb.WriteRune(r)
			}
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func TestAppendQuotedMatchesReference(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := string(AppendQuoted([]byte("x"), s)), "x"+referenceQuoted(s); got != want {
			t.Fatalf("AppendQuoted(%q) = %q, reference = %q", s, got, want)
		}
	}
	var every []byte
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
		check("a" + string([]byte{byte(b)}) + "z")
		every = append(every, byte(b))
	}
	check(string(every))
	for _, s := range []string{"", "plain", "ünïcödé ☃ 日本語 😀", "\ufffd", "\xe2\x82", "\xed\xa0\x80", "end\\", `"`} {
		check(s)
	}
	// Random byte soup over an alphabet dense in the interesting bytes.
	alphabet := []byte("ab\"\\\n\t\x00\x1f \x7f\x80\xbf\xc3\xa9\xe2\x98\x83\xf0\x9f\xff")
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(24))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		check(string(b))
	}
}

// TestParseDepthBound: nesting up to MaxDepth parses, one more is a
// SyntaxError — and far beyond it is still an error, not the fatal
// stack overflow unbounded recursion used to end in.
func TestParseDepthBound(t *testing.T) {
	nest := func(open, close string, n int) string {
		return strings.Repeat(open, n) + close + strings.Repeat(close, n-1)
	}
	for _, c := range []struct {
		name string
		in   string
		ok   bool
	}{
		{"arrays at the bound", nest("[", "]", MaxDepth), true},
		{"arrays past the bound", nest("[", "]", MaxDepth+1), false},
		{"objects at the bound", strings.Repeat(`{"k":`, MaxDepth-1) + "{}" + strings.Repeat("}", MaxDepth-1), true},
		{"objects past the bound", strings.Repeat(`{"k":`, MaxDepth) + "{}" + strings.Repeat("}", MaxDepth), false},
		{"unclosed, far past the bound", strings.Repeat("[", 4_000_000), false},
	} {
		v, err := Parse(c.in)
		if c.ok {
			if err != nil || v.Height() != MaxDepth-1 {
				t.Errorf("%s: err %v, want a value of height %d", c.name, err, MaxDepth-1)
			}
			if _, n, err := ParsePrefix(c.in + " trailing"); err != nil || n != len(c.in) {
				t.Errorf("%s: ParsePrefix consumed %d of %d bytes, err %v", c.name, n, len(c.in), err)
			}
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nesting depth") {
			t.Errorf("%s: err = %v, want a nesting-depth SyntaxError", c.name, err)
		}
		if _, _, err := ParsePrefix(c.in); !errors.As(err, &se) {
			t.Errorf("%s: ParsePrefix err = %v, want a SyntaxError", c.name, err)
		}
	}
}

func TestMemberOnNonObjectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Member on array should panic")
		}
	}()
	Arr().Member("x")
}

func TestKeysAndMembers(t *testing.T) {
	v := MustParse(`{"b":1,"a":2}`)
	if got := v.Keys(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Errorf("Keys = %v (insertion order expected)", got)
	}
	if len(v.Members()) != 2 || v.Members()[0].Key != "b" {
		t.Errorf("Members = %v", v.Members())
	}
	if Num(1).Keys() != nil || Num(1).Members() != nil || Num(1).Elems() != nil {
		t.Error("scalar accessors should return nil slices")
	}
}

func TestKindPredicatesAndAccessors(t *testing.T) {
	n := Num(7)
	s := Str("x")
	o := MustParse(`{"a":1}`)
	a := MustParse(`[1,2]`)
	if !n.IsNumber() || n.IsString() || n.IsObject() || n.IsArray() {
		t.Error("Num kind predicates wrong")
	}
	if !s.IsString() || s.IsNumber() {
		t.Error("Str kind predicates wrong")
	}
	if !o.IsObject() || o.IsArray() {
		t.Error("Obj kind predicates wrong")
	}
	if !a.IsArray() || a.IsObject() {
		t.Error("Arr kind predicates wrong")
	}
	if o.Len() != 1 || a.Len() != 2 {
		t.Errorf("Len: obj=%d arr=%d", o.Len(), a.Len())
	}
	if n.Len() != 0 {
		t.Errorf("Len of a leaf = %d, want 0", n.Len())
	}
	if len(a.Elems()) != 2 || len(n.Elems()) != 0 {
		t.Error("Elems wrong")
	}
	for _, k := range []Kind{Number, String, Object, Array} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestParseBytesAndPrefix(t *testing.T) {
	v, err := ParseBytes([]byte(`{"a": 1}`))
	if err != nil || !v.IsObject() {
		t.Fatalf("ParseBytes: %v %v", v, err)
	}
	if _, err := ParseBytes([]byte(`{"a": }`)); err == nil {
		t.Fatal("ParseBytes must reject malformed input")
	}
	// ParsePrefix stops after the first value and reports the offset of
	// the remaining input.
	input := `[1,2] trailing`
	v, off, err := ParsePrefix(input)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("prefix value = %s", v)
	}
	if strings.TrimSpace(input[off:]) != "trailing" {
		t.Fatalf("rest = %q", input[off:])
	}
}

func TestUnicodeEscapes(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`"A"`, "A"},
		{`"é"`, "é"},
		{`"é"`, "é"},
		{`"😀"`, "😀"},
	}
	for _, c := range cases {
		v, err := Parse(c.in)
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if v.Str() != c.want {
			t.Errorf("%s: got %q want %q", c.in, v.Str(), c.want)
		}
	}
	for _, bad := range []string{`"\u12"`, `"\ug000"`, `"\ud800"`, `"\ud800A"`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%s: expected error", bad)
		}
	}
}
