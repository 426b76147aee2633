package jsontree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jsonlogic/internal/jsonval"
)

const figure1 = `{
	"name": {"first": "John", "last": "Doe"},
	"age": 32,
	"hobbies": ["fishing","yoga"]
}`

// TestFigure1 reproduces the two tree figures of §3.1: the document of
// Figure 1 becomes a tree whose root has O-edges "name", "age" and
// "hobbies", with the hobbies array reached by A-edges 0 and 1.
func TestFigure1(t *testing.T) {
	tr := MustParse(figure1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	root := tr.Root()
	if tr.Kind(root) != ObjectNode || tr.NumChildren(root) != 3 {
		t.Fatalf("root: kind=%v children=%d", tr.Kind(root), tr.NumChildren(root))
	}
	name := tr.ChildByKey(root, "name")
	if name == InvalidNode || tr.Kind(name) != ObjectNode {
		t.Fatal("name child missing")
	}
	first := tr.ChildByKey(name, "first")
	if first == InvalidNode || tr.StringVal(first) != "John" {
		t.Error("name/first != John")
	}
	age := tr.ChildByKey(root, "age")
	if age == InvalidNode || tr.NumberVal(age) != 32 {
		t.Error("age != 32")
	}
	hobbies := tr.ChildByKey(root, "hobbies")
	if hobbies == InvalidNode || tr.Kind(hobbies) != ArrayNode {
		t.Fatal("hobbies missing or not array")
	}
	if h0 := tr.ChildAt(hobbies, 0); h0 == InvalidNode || tr.StringVal(h0) != "fishing" {
		t.Error("hobbies[0] != fishing")
	}
	if h1 := tr.ChildAt(hobbies, 1); h1 == InvalidNode || tr.StringVal(h1) != "yoga" {
		t.Error("hobbies[1] != yoga")
	}
	if hm1 := tr.ChildAt(hobbies, -1); hm1 != tr.ChildAt(hobbies, 1) {
		t.Error("hobbies[-1] should be the last element")
	}
	if tr.ChildAt(hobbies, 2) != InvalidNode {
		t.Error("hobbies[2] should be InvalidNode")
	}
	// Keys are not retrievable through navigation instructions, but the
	// model records them on edges.
	if tr.EdgeKey(name) != "name" {
		t.Errorf("EdgeKey(name) = %q", tr.EdgeKey(name))
	}
	if tr.Len() != 8 {
		t.Errorf("Len = %d, want 8 nodes", tr.Len())
	}
	if tr.Height(root) != 2 {
		t.Errorf("Height = %d, want 2", tr.Height(root))
	}
}

func TestNavigate(t *testing.T) {
	tr := MustParse(figure1)
	n := tr.Navigate(tr.Root(), Key("name"), Key("last"))
	if n == InvalidNode || tr.StringVal(n) != "Doe" {
		t.Errorf("J[name][last] = %v", n)
	}
	n = tr.Navigate(tr.Root(), Key("hobbies"), Index(1))
	if n == InvalidNode || tr.StringVal(n) != "yoga" {
		t.Errorf("J[hobbies][1] = %v", n)
	}
	if tr.Navigate(tr.Root(), Key("nope")) != InvalidNode {
		t.Error("missing key should navigate to InvalidNode")
	}
	if tr.Navigate(tr.Root(), Key("age"), Key("x")) != InvalidNode {
		t.Error("navigation under a leaf should fail")
	}
	if tr.Navigate(tr.Root(), Key("nope"), Key("deeper")) != InvalidNode {
		t.Error("navigation from InvalidNode should stay invalid")
	}
}

func TestSubtreeValueRoundTrip(t *testing.T) {
	tr := MustParse(figure1)
	v := tr.Value(tr.Root())
	if !jsonval.Equal(v, jsonval.MustParse(figure1)) {
		t.Error("Value(root) does not round-trip")
	}
	// json(n) of the name node is the nested object.
	name := tr.ChildByKey(tr.Root(), "name")
	want := jsonval.MustParse(`{"first":"John","last":"Doe"}`)
	if !jsonval.Equal(tr.Value(name), want) {
		t.Errorf("json(name) = %s", tr.Value(name))
	}
}

func TestSubtreeEqual(t *testing.T) {
	tr := MustParse(`{"a":{"x":[1,2],"y":"s"},"b":{"y":"s","x":[1,2]},"c":{"x":[2,1],"y":"s"}}`)
	a := tr.ChildByKey(tr.Root(), "a")
	b := tr.ChildByKey(tr.Root(), "b")
	c := tr.ChildByKey(tr.Root(), "c")
	if !tr.SubtreeEqual(a, b) {
		t.Error("a and b are equal JSON values (object member order irrelevant)")
	}
	if tr.SubtreeEqual(a, c) {
		t.Error("a and c differ (array order matters)")
	}
	if !tr.SubtreeEqualNaive(a, b) || tr.SubtreeEqualNaive(a, c) {
		t.Error("naive equality disagrees")
	}
}

func TestUniqueChildren(t *testing.T) {
	tr := MustParse(`{"u":[1,2,3],"d":[1,2,1],"objs":[{"a":1},{"a":1}],"objs2":[{"a":1},{"a":2}],"empty":[],"one":[5]}`)
	cases := map[string]bool{"u": true, "d": false, "objs": false, "objs2": true, "empty": true, "one": true}
	for key, want := range cases {
		n := tr.ChildByKey(tr.Root(), key)
		if got := tr.UniqueChildren(n); got != want {
			t.Errorf("UniqueChildren(%s) = %v, want %v", key, got, want)
		}
		if got := tr.UniqueChildrenNaive(n); got != want {
			t.Errorf("UniqueChildrenNaive(%s) = %v, want %v", key, got, want)
		}
	}
}

func TestPath(t *testing.T) {
	tr := MustParse(`{"a":[10,{"b":20}]}`)
	n := tr.Navigate(tr.Root(), Key("a"), Index(1), Key("b"))
	if n == InvalidNode {
		t.Fatal("navigation failed")
	}
	// Address in the tree domain: child 0 of root ("a"), child 1 of the
	// array, child 0 of the inner object.
	if got := tr.Path(n); !reflect.DeepEqual(got, []int{0, 1, 0}) {
		t.Errorf("Path = %v, want [0 1 0]", got)
	}
	if got := tr.Path(tr.Root()); len(got) != 0 {
		t.Errorf("Path(root) = %v, want empty", got)
	}
}

func TestDeterminism(t *testing.T) {
	// Condition 2 of §3.1: at most one child per key. ChildByKey must
	// return that single child; the parser enforces key uniqueness.
	tr := MustParse(`{"k":1}`)
	if tr.ChildByKey(tr.Root(), "k") == InvalidNode {
		t.Error("key lookup failed")
	}
	if _, err := Parse(`{"k":1,"k":2}`); err == nil {
		t.Error("duplicate keys must be rejected")
	}
}

func TestEmptyContainers(t *testing.T) {
	tr := MustParse(`{"o":{},"a":[]}`)
	o := tr.ChildByKey(tr.Root(), "o")
	a := tr.ChildByKey(tr.Root(), "a")
	if tr.NumChildren(o) != 0 || tr.NumChildren(a) != 0 {
		t.Error("empty containers should have no children")
	}
	if tr.Kind(o) != ObjectNode || tr.Kind(a) != ArrayNode {
		t.Error("empty containers keep their kinds (leaf object != string leaf)")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestChildLookupOnWrongKind(t *testing.T) {
	tr := MustParse(`[1,2]`)
	if tr.ChildByKey(tr.Root(), "x") != InvalidNode {
		t.Error("ChildByKey on array must be InvalidNode")
	}
	tr2 := MustParse(`{"a":1}`)
	if tr2.ChildAt(tr2.Root(), 0) != InvalidNode {
		t.Error("ChildAt on object must be InvalidNode")
	}
}

func randomValue(r *rand.Rand, depth int) *jsonval.Value {
	var v *jsonval.Value
	v, _ = quickValue(r, depth)
	return v
}

func quickValue(r *rand.Rand, depth int) (*jsonval.Value, int) {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return jsonval.Num(uint64(r.Intn(50))), 1
		}
		return jsonval.Str(string(rune('a' + r.Intn(6)))), 1
	}
	n := r.Intn(4)
	if r.Intn(2) == 0 {
		elems := make([]*jsonval.Value, n)
		total := 1
		for i := range elems {
			var s int
			elems[i], s = quickValue(r, depth-1)
			total += s
		}
		return jsonval.Arr(elems...), total
	}
	var members []jsonval.Member
	seen := map[string]bool{}
	total := 1
	for i := 0; i < n; i++ {
		k := string(rune('a' + r.Intn(8)))
		if seen[k] {
			continue
		}
		seen[k] = true
		mv, s := quickValue(r, depth-1)
		members = append(members, jsonval.Member{Key: k, Value: mv})
		total += s
	}
	return jsonval.MustObj(members...), total
}

type qv struct{ v *jsonval.Value }

func (qv) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(qv{randomValue(r, 2+size%4)})
}

func TestQuickTreeRoundTrip(t *testing.T) {
	f := func(x qv) bool {
		tr := FromValue(x.v)
		if err := tr.Validate(); err != nil {
			return false
		}
		return jsonval.Equal(tr.Value(tr.Root()), x.v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickSizeHashAgree(t *testing.T) {
	f := func(x qv) bool {
		tr := FromValue(x.v)
		if tr.Len() != x.v.Size() {
			return false
		}
		if tr.SubtreeHash(tr.Root()) != x.v.Hash() {
			return false
		}
		// Every node's subtree hash matches the hash of its value.
		ok := true
		tr.Walk(func(n NodeID) {
			if tr.SubtreeHash(n) != tr.Value(n).Hash() {
				ok = false
			}
			if tr.SubtreeSize(n) != tr.Value(n).Size() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtreeEqualMatchesValueEqual(t *testing.T) {
	f := func(x qv) bool {
		tr := FromValue(x.v)
		nodes := tr.Nodes()
		r := rand.New(rand.NewSource(int64(tr.Len())))
		for trial := 0; trial < 20; trial++ {
			m := nodes[r.Intn(len(nodes))]
			n := nodes[r.Intn(len(nodes))]
			want := jsonval.Equal(tr.Value(m), tr.Value(n))
			if tr.SubtreeEqual(m, n) != want || tr.SubtreeEqualNaive(m, n) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUniqueAgree(t *testing.T) {
	f := func(x qv) bool {
		tr := FromValue(x.v)
		ok := true
		tr.Walk(func(n NodeID) {
			if tr.Kind(n) == ArrayNode {
				if tr.UniqueChildren(n) != tr.UniqueChildrenNaive(n) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDump(t *testing.T) {
	tr := MustParse(`{"a":[1,"x"]}`)
	d := tr.Dump()
	for _, want := range []string{"object", `"a" -> array`, "0 -> number 1", `1 -> string "x"`} {
		if !contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestNodeIsPointerFree pins the arena's layout: no field of node may
// hold a pointer (a string, slice, map or pointer field would make the
// garbage collector scan every cached tree again), and a node stays
// within 56 bytes.
func TestNodeIsPointerFree(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	ty := reflect.TypeOf(node{})
	for i := range ty.NumField() {
		if f := ty.Field(i); !pointerFree(f.Type) {
			t.Errorf("node.%s is a %s, which holds a pointer", f.Name, f.Type)
		}
	}
	if ty.Size() > 56 {
		t.Errorf("node is %d bytes, want ≤ 56", ty.Size())
	}
}

// TestValidateArenaInvariants: Validate reports each broken arena
// invariant — a key or string span past the heap, children out of
// preorder, a subtree past the arena, unsorted object keys — on a
// copy of a valid tree damaged in one place.
func TestValidateArenaInvariants(t *testing.T) {
	src := MustParse(`{"a":{"x":1,"y":"s"},"b":[2,3],"c":"tail"}`)
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	child := func(tr *Tree, n NodeID, key string) *node { return &tr.nodes[tr.ChildByKey(n, key)] }
	for _, c := range []struct {
		name   string
		damage func(*Tree)
	}{
		{"key span past heap", func(tr *Tree) { child(tr, 0, "c").key.off = uint32(len(tr.heap)) }},
		{"string span past heap", func(tr *Tree) {
			n := child(tr, 0, "c")
			n.num = span{off: unpackSpan(n.num).off, n: uint32(len(tr.heap))}.packed()
		}},
		{"subtree past arena", func(tr *Tree) { child(tr, 0, "c").size = 2 }},
		{"root subtree short", func(tr *Tree) { tr.nodes[0].size-- }},
		{"children swapped", func(tr *Tree) {
			b := tr.kids[child(tr, 0, "b").first:]
			b[0], b[1] = b[1], b[0]
		}},
		{"keys out of order", func(tr *Tree) {
			a := child(tr, 0, "a")
			x, y := &tr.nodes[tr.kids[a.first]], &tr.nodes[tr.kids[a.first+1]]
			x.key, y.key = y.key, x.key
		}},
		{"duplicate key", func(tr *Tree) {
			a := child(tr, 0, "a")
			tr.nodes[tr.kids[a.first+1]].key = tr.nodes[tr.kids[a.first]].key
		}},
	} {
		tr := &Tree{nodes: append([]node(nil), src.nodes...), kids: append([]NodeID(nil), src.kids...), heap: src.heap}
		c.damage(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepts the damaged tree", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}
