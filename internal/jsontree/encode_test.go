package jsontree_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

// TestWriteToMatchesString is the property test pinning the one tree
// encoder to the reference serializer, the jsonval.Value detour
// Value(n).String(): on randomized trees (and a set of nasty hand-built
// edge cases) AppendJSON must reproduce it byte-for-byte at the root
// and at random subtrees — appending after whatever dst already holds
// — and String and WriteTo, its two wrappers, must agree at the root,
// WriteTo reporting exactly that many bytes written.
func TestWriteToMatchesString(t *testing.T) {
	sub := rand.New(rand.NewSource(72))
	check := func(t *testing.T, tr *jsontree.Tree) {
		t.Helper()
		want := tr.Value(tr.Root()).String()
		if got := tr.String(); got != want {
			t.Fatalf("String = %q, reference = %q", got, want)
		}
		var sb strings.Builder
		n, err := tr.WriteTo(&sb)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if sb.String() != want {
			t.Fatalf("WriteTo = %q, reference = %q", sb.String(), want)
		}
		if n != int64(len(want)) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(want))
		}
		for i := 0; i < 8; i++ {
			node := jsontree.NodeID(sub.Intn(tr.Len()))
			want := "prefix" + tr.Value(node).String()
			if got := string(tr.AppendJSON([]byte("prefix"), node)); got != want {
				t.Fatalf("AppendJSON(node %d) = %q, reference = %q", node, got, want)
			}
		}
	}

	r := rand.New(rand.NewSource(71))
	for i := 0; i < 500; i++ {
		o := gen.DefaultDocOptions()
		o.Depth = 1 + r.Intn(5)
		o.Fanout = 1 + r.Intn(6)
		check(t, jsontree.FromValue(gen.Document(r, o)))
	}

	// Edge cases the generator's tame alphabet never produces:
	// escapes, control characters, unicode, empty containers, nesting
	// deeper than the write buffer is wide.
	nasty := []*jsonval.Value{
		jsonval.Num(0),
		jsonval.Num(18446744073709551615),
		jsonval.Str(""),
		jsonval.Str("line\nbreak\ttab\rret \"quoted\" back\\slash"),
		jsonval.Str("control\x01\x1f bytes"),
		jsonval.Str("invalid \xff utf-8 \xc3"),
		jsonval.Str("ünïcödé ☃ 日本語"),
		jsonval.Arr(),
		jsonval.MustObj(),
		jsonval.MustObj(
			jsonval.Member{Key: "", Value: jsonval.Str("empty key")},
			jsonval.Member{Key: "b\"\\\n", Value: jsonval.Arr(jsonval.Num(1), jsonval.Str("x"))},
			jsonval.Member{Key: "a", Value: jsonval.MustObj()},
		),
	}
	deep := jsonval.Str("leaf")
	for i := 0; i < 2000; i++ {
		deep = jsonval.Arr(deep)
	}
	nasty = append(nasty, deep)
	big := make([]*jsonval.Value, 3000)
	for i := range big {
		big[i] = jsonval.Num(uint64(i))
	}
	nasty = append(nasty, jsonval.Arr(big...))
	for _, v := range nasty {
		check(t, jsontree.FromValue(v))
	}
}

// failAfter fails every write once off bytes have been accepted.
type failAfter struct {
	n    int
	left int
}

var errSinkClosed = errors.New("sink closed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errSinkClosed
	}
	if len(p) > f.left {
		n := f.left
		f.left = 0
		f.n += n
		return n, errSinkClosed
	}
	f.left -= len(p)
	f.n += len(p)
	return len(p), nil
}

func TestWriteToPropagatesWriteError(t *testing.T) {
	big := make([]*jsonval.Value, 5000)
	for i := range big {
		big[i] = jsonval.Str("padding-padding-padding")
	}
	tr := jsontree.FromValue(jsonval.Arr(big...))
	sink := &failAfter{left: 6000}
	n, err := tr.WriteTo(sink)
	if !errors.Is(err, errSinkClosed) {
		t.Fatalf("WriteTo error = %v, want sink error", err)
	}
	if n != int64(sink.n) {
		t.Fatalf("WriteTo reported %d bytes, sink accepted %d", n, sink.n)
	}
	if n > 6000 {
		t.Fatalf("WriteTo claims %d bytes past a 6000-byte sink", n)
	}
}
