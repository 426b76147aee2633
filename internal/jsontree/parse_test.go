package jsontree

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"jsonlogic/internal/jsonval"
)

// sameTree reports the first difference between two trees node by
// node: same ids, kinds, parents, edge labels, values, hashes, sizes,
// heights and children. Only where a container's range sits in the
// child table may differ.
func sameTree(a, b *Tree) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d nodes vs %d", a.Len(), b.Len())
	}
	for i := range a.nodes {
		x, y := a.nodes[i], b.nodes[i]
		x.first, y.first = 0, 0
		if x != y {
			return fmt.Errorf("node %d: %+v vs %+v", i, x, y)
		}
		if n := NodeID(i); !slices.Equal(a.Children(n), b.Children(n)) {
			return fmt.Errorf("node %d: children %v vs %v", i, a.Children(n), b.Children(n))
		}
	}
	return nil
}

// TestParseLargeUnsortedObject: large objects in reverse and in
// shuffled key order, nested in each other, still come out key-sorted
// and renumbered; a duplicate among them is still found.
func TestParseLargeUnsortedObject(t *testing.T) {
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	object := func(order []string, inner string) string {
		var sb strings.Builder
		sb.WriteByte('{')
		for i, k := range order {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%q:", k)
			if i == len(order)/2 {
				sb.WriteString(inner)
			} else {
				fmt.Fprint(&sb, i)
			}
		}
		sb.WriteByte('}')
		return sb.String()
	}
	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	shuffled := slices.Clone(keys)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	doc := object(reversed, object(shuffled, `[{"b":1,"a":2}]`))
	got, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(got, FromValue(jsonval.MustParse(doc))); err != nil {
		t.Fatal(err)
	}
	for i, c := range got.Children(got.Root()) {
		if got.EdgeKey(c) != keys[i] || got.EdgePos(c) != i {
			t.Fatalf("child %d: key %q pos %d, want %q %d", i, got.EdgeKey(c), got.EdgePos(c), keys[i], i)
		}
	}
	dup := object(append(reversed, "k050"), "0")
	if _, err := Parse(dup); err == nil || !strings.Contains(err.Error(), `duplicate key "k050"`) {
		t.Fatalf("duplicate in a large object: err = %v", err)
	}
}

// TestParseErrorsMatchJSONVal: Parse reports what jsonval.Parse reports
// — the same message at the same offset — since both drive one Lexer.
func TestParseErrorsMatchJSONVal(t *testing.T) {
	for _, doc := range []string{
		``, ` `, `[`, `{`, `{"a"`, `{"a":`, `{"a" 1}`, `[1,`, `[1,]`, `[1 2]`, `{,}`, `{"a":1,}`, `{"a":1 "b":2}`,
		`"`, `"\`, `"\u12`, `"\uzzzz"`, `"\x"`, "\"\x01\"", "\"\xff\"", `"\ud800"`, `"\ud800A"`,
		`true`, `false`, `null`, `-1`, `1.5`, `1e3`, `01`, `18446744073709551616`, `+1`,
		`1 2`, `{} x`, `{"a":1,"a":2}`, `{"x":{"b":[],"a":0,"b":1}}`,
		strings.Repeat("[", jsonval.MaxDepth+1),
	} {
		_, want := jsonval.Parse(doc)
		_, got := Parse(doc)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("Parse(%.20q): err %v, jsonval.Parse: %v", doc, got, want)
		}
	}
}

// corpusDoc is shaped like the benchmark corpus (benchmark/jsonbench):
// a meta block and a three-level payload, 327 bytes, key-sorted as the
// store writes documents.
const corpusDoc = `{"meta":{"region":"r4","seq":4,"tenant":"t4"},"payload":{"k10":{"k0":{"k1":59,"k10":"s30","k9":89},"k1":{"k10":"s12","k3":"s46","k7":16},"k2":{"k3":87,"k6":59}},"k6":{"k10":{"k10":87,"k2":21,"k9":56},"k4":{"k0":"s2","k2":31,"k9":"s74"},"k6":[73,53,27]},"k9":[["s71","s40",81],[9,56,"s80"],{"k0":"s65","k11":"s80","k5":"s78"}]}}`

// TestParseAllocsBounded pins tree construction at the Tree's four
// allocations (node arena, child table, heap, Tree) — through Parse's
// pooled Builder and through a reused one alike. The heap holds the
// keys and strings, which the tree used to share with the input text
// it kept alive.
func TestParseAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	if got := MustParse(corpusDoc).String(); got != corpusDoc {
		t.Fatalf("corpusDoc is not in stored form: %s", got)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Parse(corpusDoc); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Parse: %.1f allocs per document, want ≤ 4", n)
	}
	b := NewBuilder()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := b.Parse(corpusDoc); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Builder: %.1f allocs per document, want ≤ 4", n)
	}
}
