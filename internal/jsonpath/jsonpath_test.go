package jsonpath

import (
	"slices"
	"testing"

	"jsonlogic/internal/jsonval"
)

const store = `{
	"store": {
		"book": [
			{"category":"fiction","title":"Sayings","price":8},
			{"category":"fiction","title":"Moby","price":9},
			{"category":"reference","title":"Lore","price":23}
		],
		"bicycle": {"color":"red","price":20}
	},
	"expensive": 10
}`

func selectStrings(t *testing.T, path string) []string {
	t.Helper()
	p, err := Compile(path)
	if err != nil {
		t.Fatalf("Compile(%s): %v", path, err)
	}
	var out []string
	for _, v := range p.Select(jsonval.MustParse(store)) {
		out = append(out, v.String())
	}
	return out
}

func TestSelect(t *testing.T) {
	cases := []struct {
		path string
		want []string
	}{
		{`$.expensive`, []string{`10`}},
		{`$.store.bicycle.color`, []string{`"red"`}},
		{`$.store.book[0].title`, []string{`"Sayings"`}},
		{`$.store.book[-1].title`, []string{`"Lore"`}},
		{`$['store']['bicycle']['price']`, []string{`20`}},
		{`$.store.book[*].title`, []string{`"Sayings"`, `"Moby"`, `"Lore"`}},
		{`$.store.book[0:2].title`, []string{`"Sayings"`, `"Moby"`}},
		{`$.store.book[1:].title`, []string{`"Moby"`, `"Lore"`}},
		{
			// Object members are unordered in the model (children are
			// key-sorted), so bicycle precedes book.
			`$..price`, []string{`20`, `8`, `9`, `23`}},
		{`$..book[0].category`, []string{`"fiction"`}},
		{`$.store.*.price`, []string{`20`}}, // only bicycle has a direct price
		{`$.missing`, nil},
		{`$.store.book[9]`, nil},
		{`$.store.book[?(@.price == 9)].title`, []string{`"Moby"`}},
		{`$.store.book[?(@.price != 9)].title`, []string{`"Sayings"`, `"Lore"`}},
		{`$.store.book[?(@.price < 9)].title`, []string{`"Sayings"`}},
		{`$.store.book[?(@.price <= 9)].title`, []string{`"Sayings"`, `"Moby"`}},
		{`$.store.book[?(@.price > 10)].title`, []string{`"Lore"`}},
		{`$.store.book[?(@.price >= 9)].title`, []string{`"Moby"`, `"Lore"`}},
		{`$.store.book[?(@.category == 'fiction')].title`, []string{`"Sayings"`, `"Moby"`}},
		{`$.store.book[?(@.title)].price`, []string{`8`, `9`, `23`}},
		{`$..*`, nil}, // checked separately below (count only)
	}
	for _, tc := range cases {
		if tc.path == `$..*` {
			continue
		}
		got := selectStrings(t, tc.path)
		if !equalStrings(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.path, got, tc.want)
		}
	}
	// $..* selects every node except the root.
	doc := jsonval.MustParse(store)
	all := MustCompile(`$..*`).Select(doc)
	if len(all) != doc.Size()-1 {
		t.Errorf("$..* selected %d nodes, want %d", len(all), doc.Size()-1)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		``, `store`, `$.`, `$[`, `$[]`, `$['a`, `$[1:0]`, `$[?(`,
		`$[?(@.a ~ 1)]`, `$[?(@.a ==)]`, `$[-1:2]`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestRootOnly(t *testing.T) {
	p := MustCompile(`$`)
	got := p.Select(jsonval.MustParse(`{"a":1}`))
	if len(got) != 1 || got[0].String() != `{"a":1}` {
		t.Errorf("$ = %v", got)
	}
}

func TestWildcardOverArraysAndObjects(t *testing.T) {
	p := MustCompile(`$.*`)
	if got := p.Select(jsonval.MustParse(`[1,2]`)); len(got) != 2 {
		t.Errorf("wildcard over array: %v", got)
	}
	if got := p.Select(jsonval.MustParse(`{"a":1,"b":2}`)); len(got) != 2 {
		t.Errorf("wildcard over object: %v", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecursiveDescentAndFilters(t *testing.T) {
	cases := []struct {
		path string
		want []string
	}{
		{`$..price`, []string{`8`, `9`, `23`, `20`}},
		{`$.store.book[*].title`, []string{`"Sayings"`, `"Moby"`, `"Lore"`}},
		{`$.store.book[1:3].title`, []string{`"Moby"`, `"Lore"`}},
		{`$.store.book[1:].price`, []string{`9`, `23`}},
		{`$.store.book[?(@.price > 10)].title`, []string{`"Lore"`}},
		{`$.store.book[?(@.price <= 9)].title`, []string{`"Sayings"`, `"Moby"`}},
		{`$.store.book[?(@.category == "fiction")].price`, []string{`8`, `9`}},
		{`$.store.book[?(@.category != "fiction")].title`, []string{`"Lore"`}},
		{`$..book[0].category`, []string{`"fiction"`}},
		{`$..bicycle.*`, []string{`"red"`, `20`}},
		{`$.store..color`, []string{`"red"`}},
		{`$.nothing.here`, nil},
	}
	for _, c := range cases {
		got := selectStrings(t, c.path)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.path, got, c.want)
			continue
		}
		// Order-insensitive comparison: descendant traversal order is
		// implementation-defined across siblings.
		seen := map[string]int{}
		for _, g := range got {
			seen[g]++
		}
		for _, w := range c.want {
			seen[w]--
		}
		for k, v := range seen {
			if v != 0 {
				t.Errorf("%s: got %v, want %v (mismatch at %q)", c.path, got, c.want, k)
				break
			}
		}
	}
}

func TestCompiledFormulaExposed(t *testing.T) {
	p, err := Compile(`$..price`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Binary() == nil {
		t.Fatal("compiled path must expose its JNL translation")
	}
	if p.String() != `$..price` {
		t.Errorf("String() = %q", p.String())
	}
}

// TestRequiredPrefix checks the index facts the QIR derivation gives
// for a path: its deterministic prefix becomes path facts, and both
// modes carry the same facts because selection is root-anchored.
func TestRequiredPrefix(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{`$.store.book[0]`, []string{"$ kind=object", "/store kind=object", "/store/book kind=array", "/store/book/0"}},
		{`$.store..price`, []string{"$ kind=object", "/store"}},
		{`$.a[*]`, []string{"$ kind=object", "/a"}},
		{`$[1:3].k`, []string{"$ kind=array", "/1"}},
		{`$`, nil},
	}
	for _, c := range cases {
		q := MustCompile(c.src).Lower()
		var find, sel []string
		for _, f := range q.FindFacts() {
			find = append(find, f.String())
		}
		for _, f := range q.SelectFacts() {
			sel = append(sel, f.String())
		}
		if !slices.Equal(find, c.want) || !slices.Equal(sel, c.want) {
			t.Errorf("facts of %q = find %q, select %q; want %q", c.src, find, sel, c.want)
		}
	}
}
