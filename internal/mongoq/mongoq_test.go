package mongoq

import (
	"slices"
	"testing"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

var people = []string{
	`{"name":"Sue","age":28,"hobbies":["chess"]}`,
	`{"name":"John","age":32,"address":{"city":"Santiago","zip":7500}}`,
	`{"name":"Ana","age":17,"hobbies":["fishing","yoga"]}`,
	`{"name":"Bob","age":45,"hobbies":[]}`,
	`{"name":"Eve"}`,
}

func collection() *Collection {
	c := NewCollection()
	for _, src := range people {
		c.Insert(jsonval.MustParse(src))
	}
	return c
}

func names(docs []*jsonval.Value) []string {
	var out []string
	for _, d := range docs {
		n, _ := d.Member("name")
		out = append(out, n.Str())
	}
	return out
}

func TestFind(t *testing.T) {
	c := collection()
	cases := []struct {
		filter string
		want   []string
	}{
		// Example 1 of the paper.
		{`{"name": {"$eq": "Sue"}}`, []string{"Sue"}},
		{`{"name": "Sue"}`, []string{"Sue"}},
		{`{"age": {"$gt": 30}}`, []string{"John", "Bob"}},
		{`{"age": {"$gte": 28, "$lt": 45}}`, []string{"Sue", "John"}},
		{`{"age": {"$lte": 17}}`, []string{"Ana"}},
		{`{"age": {"$ne": 28}}`, []string{"John", "Ana", "Bob", "Eve"}},
		{`{"age": {"$exists": 1}}`, []string{"Sue", "John", "Ana", "Bob"}},
		{`{"age": {"$exists": 0}}`, []string{"Eve"}},
		{`{"hobbies": {"$size": 2}}`, []string{"Ana"}},
		{`{"hobbies": {"$size": 0}}`, []string{"Bob"}},
		{`{"hobbies": {"$type": "array"}}`, []string{"Sue", "Ana", "Bob"}},
		{`{"address.city": "Santiago"}`, []string{"John"}},
		{`{"address.zip": {"$gte": 7000}}`, []string{"John"}},
		{`{"hobbies.0": "fishing"}`, []string{"Ana"}},
		{`{"hobbies.1": {"$eq": "yoga"}}`, []string{"Ana"}},
		{`{"name": {"$in": ["Sue","Eve"]}}`, []string{"Sue", "Eve"}},
		{`{"name": {"$nin": ["Sue","Eve","Ana"]}}`, []string{"John", "Bob"}},
		{`{"$and": [{"age": {"$gt": 20}}, {"hobbies": {"$exists": 1}}]}`, []string{"Sue", "Bob"}},
		{`{"$or": [{"name": "Sue"}, {"age": {"$gt": 40}}]}`, []string{"Sue", "Bob"}},
		{`{"$nor": [{"age": {"$exists": 1}}]}`, []string{"Eve"}},
		{`{"$not": {"name": "Sue"}}`, []string{"John", "Ana", "Bob", "Eve"}},
		{`{"name": "Sue", "age": 28}`, []string{"Sue"}},
		{`{"name": "Sue", "age": 29}`, nil},
		{`{}`, []string{"Sue", "John", "Ana", "Bob", "Eve"}},
		{`{"address": {"city":"Santiago","zip":7500}}`, []string{"John"}}, // whole-subtree equality
		{`{"address": {"zip":7500,"city":"Santiago"}}`, []string{"John"}}, // member order irrelevant
	}
	for _, tc := range cases {
		f, err := Parse(tc.filter)
		if err != nil {
			t.Errorf("Parse(%s): %v", tc.filter, err)
			continue
		}
		got := names(c.Find(f))
		if !equalStrings(got, tc.want) {
			t.Errorf("Find(%s) = %v, want %v", tc.filter, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`[]`,
		`{"$bogus": 1}`,
		`{"a": {"$bogus": 1}}`,
		`{"$and": []}`,
		`{"a": {"$gt": "x"}}`,
		`{"a": {"$in": []}}`,
		`{"a": {"$exists": 2}}`,
		`{"a": {"$type": "boolean"}}`,
		`{"": 1}`,
		`{"a..b": 1}`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%s): expected error", src)
		}
	}
}

func TestLtZeroUnsatisfiable(t *testing.T) {
	f := MustParse(`{"age": {"$lt": 0}}`)
	if len(collection().Find(f)) != 0 {
		t.Error("$lt 0 can never match a natural number")
	}
}

func TestFormulaExposed(t *testing.T) {
	f := MustParse(`{"name": "Sue"}`)
	if f.Formula() == nil {
		t.Fatal("Formula should be exposed for composition")
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

// TestOperatorMatrix pins the semantics of each operator on a focused
// document set.
func TestOperatorMatrix(t *testing.T) {
	docs := map[string]string{
		"num5":   `{"v":5}`,
		"num10":  `{"v":10}`,
		"strx":   `{"v":"x"}`,
		"arr":    `{"v":[1,2]}`,
		"obj":    `{"v":{"w":1}}`,
		"absent": `{"u":0}`,
	}
	cases := []struct {
		filter string
		want   []string // names of matching docs
	}{
		{`{"v":{"$eq":5}}`, []string{"num5"}},
		{`{"v":{"$ne":5}}`, []string{"num10", "strx", "arr", "obj", "absent"}},
		{`{"v":{"$gt":5}}`, []string{"num10"}},
		{`{"v":{"$gte":5}}`, []string{"num5", "num10"}},
		{`{"v":{"$lt":10}}`, []string{"num5"}},
		{`{"v":{"$lte":10}}`, []string{"num5", "num10"}},
		{`{"v":{"$exists":1}}`, []string{"num5", "num10", "strx", "arr", "obj"}},
		{`{"v":{"$exists":0}}`, []string{"absent"}},
		{`{"v":{"$size":2}}`, []string{"arr"}},
		{`{"v":{"$type":"string"}}`, []string{"strx"}},
		{`{"v":{"$type":"object"}}`, []string{"obj"}},
		{`{"v":{"$in":[5,"x"]}}`, []string{"num5", "strx"}},
		{`{"v":{"$nin":[5,"x"]}}`, []string{"num10", "arr", "obj", "absent"}},
		{`{"$nor":[{"v":5},{"v":"x"}]}`, []string{"num10", "arr", "obj", "absent"}},
		{`{"v":{"$not":{"$gt":5}}}`, []string{"num5", "strx", "arr", "obj", "absent"}},
		{`{"v.w":1}`, []string{"obj"}},
		{`{"v.0":1}`, []string{"arr"}},
		{`{"v.1":{"$gt":1}}`, []string{"arr"}},
	}
	for _, c := range cases {
		f, err := Parse(c.filter)
		if err != nil {
			t.Errorf("Parse(%s): %v", c.filter, err)
			continue
		}
		want := map[string]bool{}
		for _, n := range c.want {
			want[n] = true
		}
		for name, doc := range docs {
			got := f.Matches(jsonval.MustParse(doc))
			if got != want[name] {
				t.Errorf("%s on %s (%s): got %v, want %v", c.filter, name, doc, got, want[name])
			}
		}
	}
}

// TestRequiredFacts checks the index facts the QIR derivation gives for
// a filter, and that they hold on a document the filter matches.
func TestRequiredFacts(t *testing.T) {
	f := MustParse(`{"user.name":"sue","age":{"$gte":21}}`)
	facts := f.Lower().FindFacts()
	got := make([]string, len(facts))
	for i, fact := range facts {
		got[i] = fact.String()
	}
	want := []string{"$ kind=object", "/user kind=object", "/user/name value=\"sue\"", "/age kind=number"}
	if !slices.Equal(got, want) {
		t.Fatalf("facts = %q, want %q", got, want)
	}
	match := jsontree.MustParse(`{"user":{"name":"sue"},"age":34}`)
	if !f.Matches(match.Value(match.Root())) {
		t.Fatal("fixture does not match")
	}
	for _, fact := range facts {
		if !fact.Holds(match) {
			t.Errorf("fact %s must hold on a matching document", fact)
		}
	}
	if facts := MustParse(`{"a":{"$ne":1}}`).Lower().FindFacts(); len(facts) != 0 {
		t.Errorf("negated filter should extract no facts, got %v", facts)
	}
}
