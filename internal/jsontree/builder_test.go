package jsontree

import (
	"math/rand"
	"testing"

	"jsonlogic/internal/jsonval"
)

// TestBuilderMatchesFromValue: a tree parsed by a reused Builder must
// be structurally identical to FromValue — same value, same subtree
// hashes, valid per §3.1 — across many random documents. Random values
// render their object members unsorted, so the node numbering of the
// parsed tree must still match FromValue's node for node: selections
// are reported in node order.
func TestBuilderMatchesFromValue(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := NewBuilder()
	for i := 0; i < 300; i++ {
		v := randomValue(r, 4)
		built, err := b.Parse(v.String())
		if err != nil {
			t.Fatalf("doc %d: Parse(%s): %v", i, v, err)
		}
		ref := FromValue(v)
		if err := built.Validate(); err != nil {
			t.Fatalf("doc %d: built tree invalid: %v\n%s", i, err, built.Dump())
		}
		if built.Len() != ref.Len() {
			t.Fatalf("doc %d: Len %d != %d", i, built.Len(), ref.Len())
		}
		if !jsonval.Equal(built.Value(built.Root()), v) {
			t.Fatalf("doc %d: value mismatch:\nbuilt %s\nwant  %s", i, built.Value(built.Root()), v)
		}
		if built.SubtreeHash(built.Root()) != v.Hash() {
			t.Fatalf("doc %d: root hash %#x != value hash %#x", i, built.SubtreeHash(built.Root()), v.Hash())
		}
		if built.SubtreeSize(built.Root()) != ref.SubtreeSize(ref.Root()) {
			t.Fatalf("doc %d: size mismatch", i)
		}
		if built.Height(built.Root()) != ref.Height(ref.Root()) {
			t.Fatalf("doc %d: height mismatch", i)
		}
		if err := sameTree(built, ref); err != nil {
			t.Fatalf("doc %d %s: Builder vs FromValue: %v", i, v, err)
		}
	}
}

// TestBuilderObjectCanonicalization: members written in any order
// produce key-sorted children with correct positions.
func TestBuilderObjectCanonicalization(t *testing.T) {
	tr, err := NewBuilder().Parse(`{"zebra":1,"apple":"x","mid":[]}`)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	kids := tr.Children(root)
	if len(kids) != 3 {
		t.Fatalf("want 3 children, got %d", len(kids))
	}
	wantKeys := []string{"apple", "mid", "zebra"}
	for i, c := range kids {
		if tr.EdgeKey(c) != wantKeys[i] {
			t.Errorf("child %d key %q, want %q", i, tr.EdgeKey(c), wantKeys[i])
		}
		if tr.EdgePos(c) != i {
			t.Errorf("child %d pos %d, want %d", i, tr.EdgePos(c), i)
		}
	}
	if got := tr.ChildByKey(root, "apple"); got == InvalidNode {
		t.Error("ChildByKey(apple) failed after canonicalization")
	}
}

// TestBuilderErrors: malformed structure is rejected, not built, and
// a failed Parse leaves nothing behind — open containers, keys, heap
// bytes — for the Builder's next document to inherit.
func TestBuilderErrors(t *testing.T) {
	const good = `{"b":[1,{"c":"x"}],"a":2}`
	want := MustParse(good)
	b := NewBuilder()
	for _, tc := range []struct{ name, text string }{
		{"empty", ``},
		{"open object", `{"a":[1,{"b":"x"`},
		{"key at top", `"a":1`},
		{"value without key", `{1}`},
		{"dangling key", `{"a"}`},
		{"duplicate key", `{"a":1,"b":[2],"a":2}`},
		{"mismatched close", `[{"a":1]`},
		{"second root", `{"a":1} 2`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tr, err := b.Parse(tc.text); err == nil {
				t.Fatalf("Parse(%q) = %s, want error", tc.text, tr)
			}
			got, err := b.Parse(good)
			if err != nil {
				t.Fatalf("Parse after the failure: %v", err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatalf("Parse after the failure: %v", err)
			}
		})
	}
}

// TestBuilderResetIsolation: a tree returned by Parse must not be
// disturbed by further parsing on the same Builder.
func TestBuilderResetIsolation(t *testing.T) {
	b := NewBuilder()
	first, err := b.Parse(`{"b":"x","a":[1,2]}`)
	if err != nil {
		t.Fatal(err)
	}
	want := first.String()
	if _, err := b.Parse(`{"zz":{"deep":[9,8,7,6]}}`); err != nil {
		t.Fatal(err)
	}
	if first.String() != want {
		t.Fatalf("first tree mutated by reuse: %s != %s", first.String(), want)
	}
	if err := first.Validate(); err != nil {
		t.Fatalf("first tree invalid after reuse: %v", err)
	}
}
