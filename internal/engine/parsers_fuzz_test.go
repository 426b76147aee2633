package engine

import (
	"strings"
	"testing"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

// parsersAgree holds the three routes from text to tree to one
// language. jsonval.Parse followed by jsontree.FromValue is the
// reference; jsontree.Parse scans text into a pooled Builder
// (Store.Put, /bulk, the NDJSON readers, WAL replay, segment resolve,
// /validate's inline doc, PUT /docs after reading its body); BuildTree
// reads a reader to its end and parses into a reused Builder, so it
// also pins that a
// Builder carries nothing from one document, failed or not, into the
// next. What a document is must not depend on the route: all three
// accept or all reject, and on accept the trees have the same node
// count, structural hash (so the same index value terms), height,
// well-formedness, rendered bytes (so the same WAL records and segment
// documents) and node numbering (so selections come out in the same
// order), and every tree passes Validate, arena invariants included.
// It reports whether the document was accepted.
func parsersAgree(t testing.TB, b *jsontree.Builder, doc string) bool {
	t.Helper()
	shown := doc
	if len(shown) > 80 {
		shown = shown[:80] + "…"
	}
	var ref *jsontree.Tree
	v, rerr := jsonval.Parse(doc)
	if rerr == nil {
		ref = jsontree.FromValue(v)
	}
	parsed, perr := jsontree.Parse(doc)
	built, berr := BuildTree(strings.NewReader(doc), b)
	if (rerr == nil) != (perr == nil) || (rerr == nil) != (berr == nil) {
		t.Fatalf("parsers disagree on %q:\n  jsonval.Parse:  %v\n  jsontree.Parse: %v\n  BuildTree:      %v", shown, rerr, perr, berr)
	}
	if rerr != nil {
		return false
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("jsontree.FromValue builds an invalid tree from %q: %v", shown, err)
	}
	for _, c := range []struct {
		route string
		tree  *jsontree.Tree
	}{{"jsontree.Parse", parsed}, {"BuildTree", built}} {
		got := c.tree
		if err := got.Validate(); err != nil {
			t.Fatalf("%s builds an invalid tree from %q: %v", c.route, shown, err)
		}
		if got.Len() != ref.Len() || got.SubtreeHash(got.Root()) != ref.SubtreeHash(ref.Root()) || got.Height(got.Root()) != ref.Height(ref.Root()) {
			t.Fatalf("%s builds a different tree from %q: %d nodes hash %#x height %d, reference %d nodes hash %#x height %d",
				c.route, shown, got.Len(), got.SubtreeHash(got.Root()), got.Height(got.Root()),
				ref.Len(), ref.SubtreeHash(ref.Root()), ref.Height(ref.Root()))
		}
		if g, w := got.String(), ref.String(); g != w {
			t.Fatalf("%s renders %q differently: %q, reference %q", c.route, shown, g, w)
		}
		for i := range ref.Len() {
			n := jsontree.NodeID(i)
			if got.Kind(n) != ref.Kind(n) || got.Parent(n) != ref.Parent(n) || got.EdgeKey(n) != ref.EdgeKey(n) {
				t.Fatalf("%s numbers the nodes of %q differently from node %d on", c.route, shown, i)
			}
		}
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

// TestParsersAgreeAtDepthBound: every route accepts nesting up to
// jsonval.MaxDepth and rejects one level more — the recursive parsers
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
