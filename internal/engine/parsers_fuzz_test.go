package engine

import (
	"strings"
	"testing"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

// parsersAgree holds the two ingest parsers to one language. A
// document reaches a tree either through jsontree.Parse (the recursive
// jsonval parser: Store.Put, WAL replay, segment resolve, /validate's
// inline doc) or through BuildTree (streaming tokenizer → Builder: PUT
// /docs, /bulk), and what a document is must not depend on the route:
// both accept or both reject, and on accept the trees have the same
// node count, structural hash (so the same index value terms) and
// rendered bytes (so the same WAL records and segment documents). It
// reports whether the document was accepted.
func parsersAgree(t testing.TB, b *jsontree.Builder, doc string) bool {
	t.Helper()
	shown := doc
	if len(shown) > 80 {
		shown = shown[:80] + "…"
	}
	parsed, perr := jsontree.Parse(doc)
	built, berr := BuildTree(strings.NewReader(doc), b)
	if (perr == nil) != (berr == nil) {
		t.Fatalf("parsers disagree on %q:\n  jsontree.Parse: %v\n  BuildTree:      %v", shown, perr, berr)
	}
	if perr != nil {
		return false
	}
	if parsed.Len() != built.Len() || parsed.SubtreeHash(parsed.Root()) != built.SubtreeHash(built.Root()) {
		t.Fatalf("parsers build different trees from %q: %d nodes hash %#x vs %d nodes hash %#x",
			shown, parsed.Len(), parsed.SubtreeHash(parsed.Root()), built.Len(), built.SubtreeHash(built.Root()))
	}
	if p, q := parsed.String(), built.String(); p != q {
		t.Fatalf("parsers render %q differently: %q vs %q", shown, p, q)
	}
	return true
}

// FuzzParsersAgree fuzzes parsersAgree. The seeds are the cases that
// once told the parsers apart — invalid UTF-8 that one of them
// replaced with U+FFFD and the other rejected — plus the grammar's
// other edges. The nesting-bound cases run in
// TestParsersAgreeAtDepthBound instead: 20 kB seeds cut the fuzzer's
// throughput fifty-fold.
func FuzzParsersAgree(f *testing.F) {
	for _, seed := range []string{
		`{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}`,
		"\"\xff\"", "\"caf\xc3\"", "\"\xc3\x28\"", "{\"k\x80\":1}", "\"\xed\xa0\x80\"", "\"\xf4\x90\x80\x80\"", "\"\xef\xbf\xbd\"",
		`"\ud800"`, `"\udc00"`, `"\ud800\u0041"`, `"\ud83d\ude00"`, `"\u0000"`, `"\/"`,
		`{"a":1,"a":2}`, `{"a":{"b":1,"b":2}}`, `{"b":1,"a":2}`,
		`01`, `0`, `00`, `[01]`, `-0`, `1.0`, `1e2`,
		`18446744073709551615`, `18446744073709551616`, `99999999999999999999999`,
		`1 2`, `{} x`, `[] ]`, `"a" "b"`, "1\n", " \t\r\n[ 1 , 2 ] \n", "1\x00", "\xef\xbb\xbf1",
		``, ` `, `[`, `{`, `{"a"`, `{"a":`, `[1,`, `[1,]`, `{,}`, `"`, `"\`, `"\u12`, "\"\x01\"", `true`, `null`,
	} {
		f.Add(seed)
	}
	b := jsontree.NewBuilder()
	f.Fuzz(func(t *testing.T, doc string) { parsersAgree(t, b, doc) })
}

// TestParsersAgreeAtDepthBound: both parsers accept nesting up to
// jsonval.MaxDepth and reject one level more — the recursive parser
// used to follow it until the goroutine stack overflowed.
func TestParsersAgreeAtDepthBound(t *testing.T) {
	b := jsontree.NewBuilder()
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
		if got := parsersAgree(t, b, c.doc); got != c.want {
			t.Errorf("%d-byte document %.12q…: accepted=%v, want %v", len(c.doc), c.doc, got, c.want)
		}
	}
}
