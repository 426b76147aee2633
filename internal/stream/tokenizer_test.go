package stream

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"jsonlogic/internal/jsonval"
)

// drain reads all tokens, returning them and the terminal error.
func drain(input string) ([]Token, error) {
	tok := NewTokenizer(strings.NewReader(input))
	var out []Token
	for {
		t, err := tok.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

func kinds(ts []Token) []TokenKind {
	out := make([]TokenKind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizerBasics(t *testing.T) {
	cases := []struct {
		input string
		want  []TokenKind
	}{
		{`5`, []TokenKind{NumberTok}},
		{`"x"`, []TokenKind{StringTok}},
		{`{}`, []TokenKind{BeginObject, EndObject}},
		{`[]`, []TokenKind{BeginArray, EndArray}},
		{`{"a":1}`, []TokenKind{BeginObject, KeyTok, NumberTok, EndObject}},
		{`{"a":1,"b":"x"}`, []TokenKind{BeginObject, KeyTok, NumberTok, KeyTok, StringTok, EndObject}},
		{`[1,2]`, []TokenKind{BeginArray, NumberTok, NumberTok, EndArray}},
		{`[[],{}]`, []TokenKind{BeginArray, BeginArray, EndArray, BeginObject, EndObject, EndArray}},
		{` { "a" : [ 1 , { } ] } `, []TokenKind{BeginObject, KeyTok, BeginArray, NumberTok, BeginObject, EndObject, EndArray, EndObject}},
	}
	for _, c := range cases {
		got, err := drain(c.input)
		if err != nil {
			t.Errorf("%q: %v", c.input, err)
			continue
		}
		if !reflect.DeepEqual(kinds(got), c.want) {
			t.Errorf("%q: got %v, want %v", c.input, kinds(got), c.want)
		}
	}
}

func TestTokenizerValues(t *testing.T) {
	ts, err := drain(`{"k":"a\"b\\c\ndAé😀", "n": 1234567890}`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[1].Str != "k" {
		t.Errorf("key = %q", ts[1].Str)
	}
	if want := "a\"b\\c\nd" + "A" + "é" + "😀"; ts[2].Str != want {
		t.Errorf("string = %q, want %q", ts[2].Str, want)
	}
	if ts[4].Num != 1234567890 {
		t.Errorf("number = %d", ts[4].Num)
	}
}

func TestTokenizerUTF8Passthrough(t *testing.T) {
	ts, err := drain(`"héllo wörld ∀x"`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Str != "héllo wörld ∀x" {
		t.Errorf("got %q", ts[0].Str)
	}
}

func TestTokenizerErrors(t *testing.T) {
	cases := []string{
		``,                     // empty
		`{`,                    // unterminated
		`[1,`,                  // dangling comma
		`[1,]`,                 // trailing comma
		`{,}`,                  // comma before first member
		`{"a"}`,                // missing colon
		`{"a":}`,               // missing value
		`{"a":1,}`,             // trailing comma in object
		`{"a":1 "b":2}`,        // missing comma
		`[1 2]`,                // missing comma
		`1 2`,                  // trailing input
		`{} {}`,                // trailing input
		`"unterminated`,        // unterminated string
		`"bad \q escape"`,      // invalid escape
		`"\u12g4"`,             // invalid hex
		`"\ud800"`,             // unpaired high surrogate
		`"\udc00"`,             // unpaired low surrogate
		`01`,                   // leading zero
		`-1`,                   // negatives outside the model
		`1.5`,                  // fractions outside the model
		`true`,                 // booleans outside the model
		`null`,                 // null outside the model
		`{"a":1,"a":2}`,        // duplicate key
		"\"raw\tcontrol\"",     // raw control char
		`18446744073709551616`, // overflow
	}
	for _, input := range cases {
		if _, err := drain(input); err == nil {
			t.Errorf("%q: expected error", input)
		}
	}
}

func TestTokenizerDuplicateKeysOption(t *testing.T) {
	tok := NewTokenizerOptions(strings.NewReader(`{"a":1,"a":2}`), TokenizerOptions{AllowDuplicateKeys: true})
	for {
		_, err := tok.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("duplicate keys should be allowed: %v", err)
		}
	}
}

func TestTokenizerMaxDepth(t *testing.T) {
	input := strings.Repeat("[", 40) + strings.Repeat("]", 40)
	tok := NewTokenizerOptions(strings.NewReader(input), TokenizerOptions{MaxDepth: 32})
	var err error
	for err == nil {
		_, err = tok.Next()
	}
	if err == io.EOF {
		t.Fatal("depth cap not enforced")
	}
	if !strings.Contains(err.Error(), "depth") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTokenizerOffsets(t *testing.T) {
	input := `{"ab": 17}`
	ts, err := drain(input)
	if err != nil {
		t.Fatal(err)
	}
	wantOffsets := []int64{0, 1, 7, 9}
	for i, w := range wantOffsets {
		if ts[i].Offset != w {
			t.Errorf("token %d (%v): offset %d, want %d", i, ts[i].Kind, ts[i].Offset, w)
		}
	}
}

func TestTokenizerSyntaxErrorType(t *testing.T) {
	_, err := drain(`[1,]`)
	var se *SyntaxError
	if !errorsAs(err, &se) {
		t.Fatalf("want *SyntaxError, got %T: %v", err, err)
	}
	if se.Offset <= 0 {
		t.Errorf("offset = %d", se.Offset)
	}
}

func errorsAs(err error, target **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*target = se
	}
	return ok
}

func TestTokenKindString(t *testing.T) {
	for k := BeginObject; k <= NumberTok; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "TokenKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TokenKind(99).String() != "TokenKind(99)" {
		t.Error("fallback name wrong")
	}
}

// TestTokenizerRoundTrip checks against the jsonval parser: any value
// serialized and re-tokenized rebuilds the same value.
func TestTokenizerRoundTrip(t *testing.T) {
	f := func(c docCase) bool {
		rebuilt, err := rebuild(NewTokenizer(strings.NewReader(c.doc.String())))
		if err != nil {
			t.Logf("doc %s: %v", c.doc, err)
			return false
		}
		return jsonval.Equal(c.doc, rebuilt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rebuild reconstructs a value from the token stream (test helper; the
// whole point of the package is not having to do this).
func rebuild(tok *Tokenizer) (*jsonval.Value, error) {
	type frame struct {
		isObject bool
		members  []jsonval.Member
		elems    []*jsonval.Value
		key      string
	}
	var stack []*frame
	var result *jsonval.Value
	attach := func(v *jsonval.Value) error {
		if len(stack) == 0 {
			result = v
			return nil
		}
		top := stack[len(stack)-1]
		if top.isObject {
			top.members = append(top.members, jsonval.Member{Key: top.key, Value: v})
		} else {
			top.elems = append(top.elems, v)
		}
		return nil
	}
	for {
		t, err := tok.Next()
		if err == io.EOF {
			return result, nil
		}
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case KeyTok:
			stack[len(stack)-1].key = t.Str
		case BeginObject:
			stack = append(stack, &frame{isObject: true})
		case BeginArray:
			stack = append(stack, &frame{})
		case EndObject:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v, err := jsonval.Obj(top.members...)
			if err != nil {
				return nil, err
			}
			if err := attach(v); err != nil {
				return nil, err
			}
		case EndArray:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := attach(jsonval.Arr(top.elems...)); err != nil {
				return nil, err
			}
		case StringTok:
			if err := attach(jsonval.Str(t.Str)); err != nil {
				return nil, err
			}
		case NumberTok:
			if err := attach(jsonval.Num(t.Num)); err != nil {
				return nil, err
			}
		}
	}
}

type docCase struct{ doc *jsonval.Value }

func (docCase) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(docCase{randValue(r, 1+r.Intn(3))})
}

func randValue(r *rand.Rand, depth int) *jsonval.Value {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return jsonval.Num(uint64(r.Intn(1000)))
		case 1:
			return jsonval.Str(randString(r))
		default:
			return jsonval.MustObj()
		}
	}
	if r.Intn(2) == 0 {
		n := r.Intn(4)
		elems := make([]*jsonval.Value, n)
		for i := range elems {
			elems[i] = randValue(r, depth-1)
		}
		return jsonval.Arr(elems...)
	}
	keys := []string{"a", "b", "c", "déjà", "x y", `q"z`}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	n := r.Intn(4)
	members := make([]jsonval.Member, 0, n)
	for i := 0; i < n && i < len(keys); i++ {
		members = append(members, jsonval.Member{Key: keys[i], Value: randValue(r, depth-1)})
	}
	return jsonval.MustObj(members...)
}

func randString(r *rand.Rand) string {
	alphabet := []rune{'a', 'b', '"', '\\', '\n', 'é', '😀', ' '}
	n := r.Intn(6)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(out)
}

// cutReader serves the prefix of s, then fails every read with errCut
// — a stand-in for any mid-document I/O failure (a broken pipe, an
// http.MaxBytesReader cap).
type cutReader struct {
	s   string
	off int
}

var errCut = io.ErrUnexpectedEOF

func (r *cutReader) Read(p []byte) (int, error) {
	if r.off >= len(r.s) {
		return 0, errCut
	}
	n := copy(p, r.s[r.off:])
	r.off += n
	return n, nil
}

// TestTokenizerReaderErrorPropagates pins that a reader's own error is
// never rewritten into a *SyntaxError: only io.EOF means "the document
// is truncated". The daemon depends on this to map oversized request
// bodies (*http.MaxBytesError) to 413 instead of 400.
func TestTokenizerReaderErrorPropagates(t *testing.T) {
	// Each prefix stops the reader inside a different tokenizer state:
	// a bare string, an escape, a \u escape, a multi-byte UTF-8
	// sequence, a surrogate pair, an object key, and after a key.
	prefixes := []string{
		`{"k`,
		`{"k":"v`,
		`{"k":"a\`,
		`{"k":"\u00`,
		`{"k":"\uD83D`,
		`{"k":"\uD83D\`,
		"{\"k\":\"\xE2\x82",
		`{"k":1`,
		`{"k"`,
		`{"k" `,
		`{"k":[1`,
		`{`,
	}
	for _, p := range prefixes {
		tok := NewTokenizer(&cutReader{s: p})
		var err error
		for err == nil {
			_, err = tok.Next()
		}
		if err != errCut {
			t.Errorf("prefix %q: got %v (%T), want the reader's error", p, err, err)
		}
	}
	// io.EOF at the same points stays a syntax error: truncated input
	// is the document's defect, not the reader's.
	for _, p := range prefixes {
		tok := NewTokenizer(strings.NewReader(p))
		var err error
		for err == nil {
			_, err = tok.Next()
		}
		var se *SyntaxError
		if !errorsAs(err, &se) {
			t.Errorf("prefix %q at EOF: got %v (%T), want *SyntaxError", p, err, err)
		}
	}
}

// runReader serves prefix and then n copies of b, counting the bytes
// read from it.
type runReader struct {
	prefix string
	b      byte
	n, off int
}

func (r *runReader) Read(p []byte) (int, error) {
	end := len(r.prefix) + r.n
	if r.off >= end {
		return 0, io.EOF
	}
	k := 0
	for ; k < len(p) && r.off < end; k, r.off = k+1, r.off+1 {
		if r.off < len(r.prefix) {
			p[k] = r.prefix[r.off]
		} else {
			p[k] = r.b
		}
	}
	return k, nil
}

// TestTokenizerRejectsLongLiteralEarly pins that a literal the
// language rejects early is rejected there, whatever follows: a digit
// run on its first 21 digits, a string at its first raw control byte
// or invalid UTF-8. The tokenizer neither buffers the rest of an 8 MB
// literal nor reads it.
func TestTokenizerRejectsLongLiteralEarly(t *testing.T) {
	const run = 8 << 20
	for _, tc := range []struct {
		prefix string
		b      byte
		offset int64
		msg    string
	}{
		{"[", '1', 1, "number out of range"},
		{"[", '0', 1, "leading zeros"},
		{"[\"a\x01", 'a', 3, "raw control character"},
		{"[\"a\xff", 'a', 3, "invalid UTF-8"},
		{"{\"a\xc3(", 'a', 3, "invalid UTF-8"},
	} {
		r := &runReader{prefix: tc.prefix, b: tc.b, n: run}
		tok := NewTokenizer(r)
		var err error
		for err == nil {
			_, err = tok.Next()
		}
		var se *SyntaxError
		if !errorsAs(err, &se) || se.Offset != tc.offset || !strings.HasPrefix(se.Msg, tc.msg) {
			t.Errorf("%q then %c×%d: got %v, want %q at offset %d", tc.prefix, tc.b, run, err, tc.msg, tc.offset)
		}
		if len(err.Error()) > 200 {
			t.Errorf("%q: error message of %d bytes", tc.prefix, len(err.Error()))
		}
		if r.off > 64<<10 {
			t.Errorf("%q then %c×%d: read %d bytes before rejecting", tc.prefix, tc.b, run, r.off)
		}
		if cap(tok.lit) > maxLit {
			t.Errorf("%q: literal buffer of %d bytes kept", tc.prefix, cap(tok.lit))
		}
	}
}

// TestTokenizerDropsLongLiteralBuffer: after a long string the
// Tokenizer keeps neither the literal's buffer nor its decoding
// scratch, so it does not hold its longest literal for the rest of
// the stream.
func TestTokenizerDropsLongLiteralBuffer(t *testing.T) {
	long := strings.Repeat(`ab\n`, 100_000)
	toks, err := drain(`["` + long + `", 1]`)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Repeat("ab\n", 100_000); len(toks) != 4 || toks[1].Str != want {
		t.Fatalf("long string mis-read")
	}
	tok := NewTokenizer(strings.NewReader(`["` + long + `", 1]`))
	for i := 0; i < 3; i++ {
		if _, err := tok.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(tok.lit) > maxLit || tok.lex.In != nil {
		t.Errorf("after a %d-byte literal: buffer of %d bytes kept, Lexer view kept: %v", len(long), cap(tok.lit), tok.lex.In != nil)
	}
}

// BenchmarkTokenizeLongString reads a document of one 1 MB string,
// plain or with an escape every 8 bytes; its B/op is the tokenizer's
// memory for a long literal.
func BenchmarkTokenizeLongString(b *testing.B) {
	for _, tc := range []struct{ name, unit string }{
		{"plain", "abcdefgh"},
		{"escaped", `abcdef\n`},
	} {
		doc := `"` + strings.Repeat(tc.unit, 1<<17) + `"`
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var r strings.Reader
			for i := 0; i < b.N; i++ {
				r.Reset(doc)
				if _, err := NewTokenizer(&r).Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
