package stream

import (
	"slices"
	"strings"
	"testing"

	"jsonlogic/internal/jsonval"
)

// valueEvents appends the event traversal of v: members in document
// order, each key before its value.
func valueEvents(dst []Token, v *jsonval.Value) []Token {
	switch v.Kind() {
	case jsonval.Number:
		return append(dst, Token{Kind: NumberTok, Num: v.Num()})
	case jsonval.String:
		return append(dst, Token{Kind: StringTok, Str: v.Str()})
	case jsonval.Array:
		dst = append(dst, Token{Kind: BeginArray})
		for _, e := range v.Elems() {
			dst = valueEvents(dst, e)
		}
		return append(dst, Token{Kind: EndArray})
	}
	dst = append(dst, Token{Kind: BeginObject})
	for _, m := range v.Members() {
		dst = append(dst, Token{Kind: KeyTok, Str: m.Key})
		dst = valueEvents(dst, m.Value)
	}
	return append(dst, Token{Kind: EndObject})
}

// literalErrors are the messages with which jsonval's Lexer rejects a
// string or number literal — the errors the tokenizer's Lexer must
// report as jsonval.Parse does. Structural errors are worded by each
// driver and fall outside them.
var literalErrors = []string{
	"unterminated string", "unterminated escape", "invalid escape",
	"truncated \\u escape", "invalid hex digit", "unpaired surrogate",
	"invalid surrogate pair", "raw control character", "invalid UTF-8",
	"fractional and exponent numbers", "leading zeros", "number out of range",
}

// tokenizerAgrees holds the §6 tokenizer to the store's document
// language, so the streaming validator decides over exactly the
// documents the store holds: it accepts what jsonval.Parse accepts
// (the parser jsontree.Parse shares its lexer with), and on accept
// its token stream is the parsed value's event traversal. When
// jsonval.Parse rejects a literal, the tokenizer rejects it with the
// same message at the same offset. It reports whether the document was
// accepted.
func tokenizerAgrees(t testing.TB, doc string) bool {
	t.Helper()
	shown := doc
	if len(shown) > 80 {
		shown = shown[:80] + "…"
	}
	v, rerr := jsonval.Parse(doc)
	toks, terr := drain(doc)
	if (rerr == nil) != (terr == nil) {
		t.Fatalf("tokenizer disagrees with jsonval.Parse on %q:\n  jsonval.Parse: %v\n  tokenizer:     %v", shown, rerr, terr)
	}
	if rerr != nil {
		re := rerr.(*jsonval.SyntaxError)
		if slices.ContainsFunc(literalErrors, func(m string) bool { return strings.HasPrefix(re.Msg, m) }) {
			te, ok := terr.(*SyntaxError)
			if !ok || te.Offset != int64(re.Offset) || te.Msg != re.Msg {
				t.Fatalf("tokenizer rejects the literal in %q otherwise than jsonval.Parse:\n  jsonval.Parse: %v\n  tokenizer:     %v", shown, rerr, terr)
			}
		}
		return false
	}
	sameEvent := func(a, b Token) bool { return a.Kind == b.Kind && a.Str == b.Str && a.Num == b.Num }
	if want := valueEvents(nil, v); !slices.EqualFunc(toks, want, sameEvent) {
		t.Fatalf("tokenizer streams %q as %v, its value as %v", shown, toks, want)
	}
	return true
}

// FuzzTokenizerAgrees fuzzes tokenizerAgrees. The seeds are the cases
// that once told the text-to-tree routes apart — invalid UTF-8 that
// one of them replaced with U+FFFD and the other rejected — plus the
// grammar's other edges. The nesting-bound cases run in
// TestTokenizerAgreesAtDepthBound instead: 20 kB seeds cut the
// fuzzer's throughput fifty-fold.
func FuzzTokenizerAgrees(f *testing.F) {
	for _, seed := range []string{
		`{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}`,
		"\"\xff\"", "\"caf\xc3\"", "\"\xc3\x28\"", "{\"k\x80\":1}", "\"\xed\xa0\x80\"", "\"\xf4\x90\x80\x80\"", "\"\xef\xbf\xbd\"",
		`"\ud800"`, `"\udc00"`, `"\ud800\u0041"`, `"\ud83d\ude00"`, `"\u0000"`, `"\/"`,
		`{"a":1,"a":2}`, `{"a":{"b":1,"b":2}}`, `{"b":1,"a":2}`,
		`01`, `0`, `00`, `[01]`, `-0`, `1.0`, `1e2`,
		`18446744073709551615`, `18446744073709551616`, `99999999999999999999999`, `[1.5]`, `00.5`, `1e`,
		`[123456789012345678901234567890.5]`, `[000000000000000000000000000000.5]`, "[\"a\x01" + strings.Repeat("b", 5000), "[\"a\xe2\x82(" + strings.Repeat("b", 5000) + `"]`,
		`1 2`, `{} x`, `[] ]`, `"a" "b"`, "1\n", " \t\r\n[ 1 , 2 ] \n", "1\x00", "\xef\xbb\xbf1",
		``, ` `, `[`, `{`, `{"a"`, `{"a":`, `[1,`, `[1,]`, `{,}`, `"`, `"\`, `"\u12`, `["\u12"]`, `"\u12"`, "\"\x01\"", "\"a\tb\"", `"\\"`, `"\\\""`, `["a\\\\", "b\""]`, `true`, `null`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) { tokenizerAgrees(t, doc) })
}

// TestTokenizerAgreesAtDepthBound: the tokenizer accepts nesting up to
// jsonval.MaxDepth and rejects one level more, as the parser does.
func TestTokenizerAgreesAtDepthBound(t *testing.T) {
	arrays := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	objects := func(n int) string { return strings.Repeat(`{"k":`, n) + "1" + strings.Repeat("}", n) }
	for _, c := range []struct {
		doc  string
		want bool
	}{
		{arrays(jsonval.MaxDepth - 1), true},
		{arrays(jsonval.MaxDepth), true},
		{arrays(jsonval.MaxDepth + 1), false},
		{objects(jsonval.MaxDepth), true},
		{objects(jsonval.MaxDepth + 1), false},
		{strings.Repeat("[", 4_000_000), false},
	} {
		if got := tokenizerAgrees(t, c.doc); got != c.want {
			t.Errorf("%d-byte document %.12q…: accepted=%v, want %v", len(c.doc), c.doc, got, c.want)
		}
	}
}
