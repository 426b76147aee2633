package jsontree

import (
	"math/rand"
	"testing"

	"jsonlogic/internal/jsonval"
)

// feedValue drives a Builder with the event stream of a value, the same
// traversal a tokenizer would produce (document member order, not
// key-sorted).
func feedValue(t *testing.T, b *Builder, v *jsonval.Value) {
	t.Helper()
	if err := replay(b, v); err != nil {
		t.Fatalf("builder event failed: %v", err)
	}
}

func replay(b *Builder, v *jsonval.Value) error {
	switch v.Kind() {
	case jsonval.Number:
		return b.Number(v.Num())
	case jsonval.String:
		return b.String(v.Str())
	case jsonval.Array:
		if err := b.BeginArray(); err != nil {
			return err
		}
		for _, e := range v.Elems() {
			if err := replay(b, e); err != nil {
				return err
			}
		}
		return b.EndArray()
	default:
		if err := b.BeginObject(); err != nil {
			return err
		}
		for _, m := range v.Members() {
			if err := b.Key(m.Key); err != nil {
				return err
			}
			if err := replay(b, m.Value); err != nil {
				return err
			}
		}
		return b.EndObject()
	}
}

// TestBuilderMatchesFromValue: a Builder-made tree must be structurally
// identical to FromValue — same value, same subtree hashes, valid per
// §3.1 — across many random documents, reusing one Builder throughout.
// Random values render their object members unsorted, so the node
// numbering of the Builder and of Parse on that text must still match
// FromValue's node for node: selections are reported in node order.
func TestBuilderMatchesFromValue(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := NewBuilder()
	for i := 0; i < 300; i++ {
		v := randomValue(r, 4)
		b.Reset()
		feedValue(t, b, v)
		built, err := b.Tree()
		if err != nil {
			t.Fatalf("doc %d: Tree: %v", i, err)
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
		parsed, err := Parse(v.String())
		if err != nil {
			t.Fatalf("doc %d: Parse(%s): %v", i, v, err)
		}
		if err := sameTree(parsed, ref); err != nil {
			t.Fatalf("doc %d %s: Parse vs FromValue: %v", i, v, err)
		}
	}
}

// TestBuilderObjectCanonicalization: members fed in any order produce
// key-sorted children with correct positions and the same hash.
func TestBuilderObjectCanonicalization(t *testing.T) {
	b := NewBuilder()
	for _, err := range []error{
		b.BeginObject(), b.Key("zebra"), b.Number(1),
		b.Key("apple"), b.String("x"), b.Key("mid"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.BeginArray(); err != nil {
		t.Fatal(err)
	}
	if err := b.EndArray(); err != nil {
		t.Fatal(err)
	}
	if err := b.EndObject(); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Tree()
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

// TestBuilderErrors: malformed event sequences are rejected, not built.
func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		feed func(b *Builder) error
	}{
		{"empty", func(b *Builder) error { return nil }},
		{"open object", func(b *Builder) error { return b.BeginObject() }},
		{"key at top", func(b *Builder) error { return b.Key("a") }},
		{"value without key", func(b *Builder) error {
			if err := b.BeginObject(); err != nil {
				return err
			}
			return b.Number(1)
		}},
		{"dangling key", func(b *Builder) error {
			if err := b.BeginObject(); err != nil {
				return err
			}
			if err := b.Key("a"); err != nil {
				return err
			}
			return b.EndObject()
		}},
		{"duplicate key", func(b *Builder) error {
			for _, err := range []error{b.BeginObject(), b.Key("a"), b.Number(1), b.Key("a"), b.Number(2)} {
				if err != nil {
					return err
				}
			}
			return b.EndObject()
		}},
		{"mismatched close", func(b *Builder) error {
			if err := b.BeginArray(); err != nil {
				return err
			}
			return b.EndObject()
		}},
		{"second root", func(b *Builder) error {
			if err := b.Number(1); err != nil {
				return err
			}
			return b.Number(2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			err := tc.feed(b)
			if err == nil {
				_, err = b.Tree()
			}
			if err == nil {
				t.Fatal("want error, got none")
			}
		})
	}
}

// TestBuilderResetIsolation: a tree returned by Tree must not be
// disturbed by further building on the same (reset) Builder.
func TestBuilderResetIsolation(t *testing.T) {
	b := NewBuilder()
	feedValue(t, b, jsonval.MustParse(`{"a":[1,2],"b":"x"}`))
	first, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	want := first.String()
	b.Reset()
	feedValue(t, b, jsonval.MustParse(`{"zz":{"deep":[9,8,7,6]}}`))
	if _, err := b.Tree(); err != nil {
		t.Fatal(err)
	}
	if first.String() != want {
		t.Fatalf("first tree mutated by reuse: %s != %s", first.String(), want)
	}
	if err := first.Validate(); err != nil {
		t.Fatalf("first tree invalid after reuse: %v", err)
	}
}
