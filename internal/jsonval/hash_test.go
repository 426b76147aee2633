package jsonval

import (
	"fmt"
	"testing"
)

// TestIncrementalHashAgreement checks that the exported incremental
// hashers reproduce Value.Hash exactly for every kind, including the
// order-independence of object hashing.
func TestIncrementalHashAgreement(t *testing.T) {
	if got, want := HashNumber(42), Num(42).Hash(); got != want {
		t.Errorf("HashNumber(42) = %#x, want %#x", got, want)
	}
	if got, want := HashString("hobby"), Str("hobby").Hash(); got != want {
		t.Errorf("HashString = %#x, want %#x", got, want)
	}
	if HashString("") == HashNumber(0) {
		t.Error("empty string and zero hash to the same value")
	}

	elems := []*Value{Num(1), Str("x"), Arr(Num(2))}
	var ah ArrayHasher
	for _, e := range elems {
		ah.Add(e.Hash())
	}
	if got, want := ah.Sum(), Arr(elems...).Hash(); got != want {
		t.Errorf("ArrayHasher = %#x, want %#x", got, want)
	}
	var empty ArrayHasher
	if got, want := empty.Sum(), Arr().Hash(); got != want {
		t.Errorf("empty ArrayHasher = %#x, want %#x", got, want)
	}

	members := []Member{
		{Key: "name", Value: Str("sue")},
		{Key: "age", Value: Num(34)},
		{Key: "tags", Value: Arr(Str("a"), Str("b"))},
	}
	var oh ObjectHasher
	for _, m := range members {
		oh.Add(m.Key, m.Value.Hash())
	}
	if got, want := oh.Sum(), MustObj(members...).Hash(); got != want {
		t.Errorf("ObjectHasher = %#x, want %#x", got, want)
	}
	// Commutativity: adding members in reverse order gives the same sum.
	var rev ObjectHasher
	for i := len(members) - 1; i >= 0; i-- {
		rev.Add(members[i].Key, members[i].Value.Hash())
	}
	if rev.Sum() != oh.Sum() {
		t.Error("ObjectHasher is order-dependent")
	}
	var emptyObj ObjectHasher
	if got, want := emptyObj.Sum(), MustObj().Hash(); got != want {
		t.Errorf("empty ObjectHasher = %#x, want %#x", got, want)
	}
}

// TestIncrementalHashNested drives the hashers over a nested document
// bottom-up and compares against the parser's hash.
func TestIncrementalHashNested(t *testing.T) {
	src := `{"a":[1,{"b":"x","c":[]},3],"d":{},"e":"y"}`
	v := MustParse(src)

	inner := func() uint64 {
		var o ObjectHasher
		o.Add("b", HashString("x"))
		var emptyArr ArrayHasher
		o.Add("c", emptyArr.Sum())
		return o.Sum()
	}()
	var a ArrayHasher
	a.Add(HashNumber(1))
	a.Add(inner)
	a.Add(HashNumber(3))
	var d ObjectHasher
	var root ObjectHasher
	root.Add("a", a.Sum())
	root.Add("d", d.Sum())
	root.Add("e", HashString("y"))
	if got, want := root.Sum(), v.Hash(); got != want {
		t.Fatalf("incremental hash of %s = %#x, want %#x", src, got, want)
	}
}

// TestHashDistinguishesKinds guards against collisions between small
// values of different kinds that the engine's plan-cache fuzzing
// depends on being distinct.
func TestHashDistinguishesKinds(t *testing.T) {
	vals := []*Value{Num(0), Str(""), Arr(), MustObj(), Str("0"), Arr(Num(0))}
	seen := map[uint64]string{}
	for _, v := range vals {
		if prev, dup := seen[v.Hash()]; dup {
			t.Errorf("hash collision between %s and %s", prev, v)
		}
		seen[v.Hash()] = fmt.Sprintf("%v", v)
	}
}

// TestHashGolden pins Value.Hash to literal values. Segment term
// directories on disk store value terms derived from these hashes, so
// a change to the scheme — however internally consistent — would
// silently orphan every indexed exact-value term of an existing data
// directory. The cases cover each kind, the uint64 boundary, escapes
// and non-ASCII text, empty containers and nesting.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		doc  string
		want uint64
	}{
		{`0`, 0xde1e3ccf7f35aed8},
		{`18446744073709551615`, 0x40cd9b5b193be750},
		{`""`, 0x39fc34cc7b6e29a3},
		{`"café \"q\" \\ \n\t😀"`, 0xc987841e359c075a},
		{`{}`, 0xb8b40eab3da475ce},
		{`[]`, 0xe5986e10e78c00a1},
		{`[1,"1",[],{}]`, 0x87d4967dc3ed0bfa},
		{`{"b":[2,{"c":"x"}],"a":{"":0,"z":[[]]}}`, 0xf43653ac2a55d7ee},
		{`{"name":{"first":"John","last":"Doe"},"age":32,"hobbies":["fishing","yoga"]}`, 0xf23c5747ea0b019b},
	} {
		if got := MustParse(c.doc).Hash(); got != c.want {
			t.Errorf("Hash(%s) = %#x, want %#x", c.doc, got, c.want)
		}
	}
}
