package jsontree

import (
	"math/rand"
	"strings"
	"testing"

	"jsonlogic/internal/jsonval"
)

// textFacts derives a spread of facts from a parsed document: for
// every node (up to limit) its presence, each of the four class
// facts, its own scalar value and a near miss of it, and one step past
// it that does not exist. Half of them hold, half do not — the mix
// HoldsJSON must decide exactly as Holds does.
func textFacts(t *Tree, limit int) []PathFact {
	var facts []PathFact
	steps := func(n NodeID) []Step {
		var rev []Step
		for n != t.Root() {
			p := t.Parent(n)
			if t.Kind(p) == ObjectNode {
				rev = append(rev, Key(t.EdgeKey(n)))
			} else {
				rev = append(rev, Index(t.EdgePos(n)))
			}
			n = p
		}
		out := make([]Step, len(rev))
		for i, s := range rev {
			out[len(rev)-1-i] = s
		}
		return out
	}
	for i, n := range t.Nodes() {
		if i >= limit {
			break
		}
		at := steps(n)
		facts = append(facts, PathFact{Steps: at})
		for k := ObjectNode; k <= NumberNode; k++ {
			facts = append(facts, PathFact{Steps: at, HasClass: true, Class: k})
		}
		switch t.Kind(n) {
		case NumberNode:
			v := t.NumberVal(n)
			facts = append(facts,
				PathFact{Steps: at, Value: jsonval.Num(v)},
				PathFact{Steps: at, Value: jsonval.Num(v + 1)},
				PathFact{Steps: at, Value: jsonval.Str(t.Value(n).String())})
		case StringNode:
			v := t.StringVal(n)
			facts = append(facts,
				PathFact{Steps: at, Value: jsonval.Str(v)},
				PathFact{Steps: at, HasClass: true, Class: StringNode, Value: jsonval.Str(v)},
				PathFact{Steps: at, Value: jsonval.Str(v + "x")},
				PathFact{Steps: at, Value: jsonval.Num(uint64(len(v)))})
			if v != "" {
				facts = append(facts, PathFact{Steps: at, Value: jsonval.Str(v[:len(v)-1])})
			}
		case ObjectNode:
			facts = append(facts, PathFact{Steps: ExtendSteps(at, Key("\u00e9missing"))})
		case ArrayNode:
			facts = append(facts, PathFact{Steps: ExtendSteps(at, Index(t.NumChildren(n)))})
		}
		facts = append(facts, PathFact{Steps: ExtendSteps(at, Index(0))}, PathFact{Steps: ExtendSteps(at, Key(""))})
	}
	return facts
}

// checkTextAgrees requires HoldsJSON on doc to answer every derived
// fact without error and exactly as Holds does on the parsed tree.
func checkTextAgrees(t *testing.T, doc string, extra ...PathFact) {
	t.Helper()
	tr, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse(%q): %v", doc, err)
	}
	for _, f := range append(textFacts(tr, 64), extra...) {
		got, err := f.HoldsJSON([]byte(doc))
		if err != nil {
			t.Fatalf("HoldsJSON(%s) on %q: %v", f, doc, err)
		}
		if want := f.Holds(tr); got != want {
			t.Fatalf("HoldsJSON(%s) on %q = %v, Holds = %v", f, doc, got, want)
		}
	}
}

func TestHoldsJSONMatchesHolds(t *testing.T) {
	for _, doc := range []string{
		corpusDoc,
		`7`,
		`"s"`,
		`{}`,
		`[]`,
		` { "a" : [ 1 , { "b" : "c" } , [ ] , { } ] ,` + "\n\t\r" + `"d":0 } `,
		`{"a\"b":1,"a\\b":"\\","\u00e9":"\u00e9","\ud83d\ude00":"\ud83d\ude00x","t\tab":"\/\b\f\n\r\t"}`,
		`{"é":"é","😀":["😀","\u0000"]}`,
		`{"k":"` + strings.Repeat(`\u0041`, 40) + `"}`,
		`[[[[[[[[[[{"deep":[0,1,2,{"x":18446744073709551615}]}]]]]]]]]]]`,
		`{"":{"":[""]},"a":{"":0}}`,
	} {
		checkTextAgrees(t, doc)
	}
	// Random documents, compact and indented: skipping must cope with
	// every layout the language allows.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		v := randomValue(r, 2+i%5)
		checkTextAgrees(t, v.String())
		checkTextAgrees(t, v.Indent("  "))
	}
}

// TestHoldsJSONErrors: text the check cannot read is an error, never a
// quiet false — so a damaged segment document surfaces instead of
// dropping out of an answer.
func TestHoldsJSONErrors(t *testing.T) {
	deep := PathFact{Steps: []Step{Key("z")}, Value: jsonval.Str("v")}
	for _, tc := range []struct {
		doc  string
		fact PathFact
	}{
		{``, PathFact{}},
		{`  `, PathFact{HasClass: true, Class: ObjectNode}},
		{`true`, PathFact{}},
		{`-1`, deep},
		{`{"a":tru,"z":"v"}`, deep},
		{`{"a":1.5,"z":"v"}`, deep},
		{`{"a":01,"z":"v"}`, deep},
		{`{"a":99999999999999999999,"z":"v"}`, deep},
		{`{"a":"x\q","z":"v"}`, deep},
		{`{"a":"x\ud800","z":"v"}`, deep},
		{`{"a":"x\udc00\u0041","z":"v"}`, deep},
		{`{"a":"x\u12","z":"v"}`, deep},
		{"{\"a\":\"x\x01\",\"z\":\"v\"}", deep},
		{"{\"a\":\"\xff\",\"z\":\"v\"}", deep},
		{`{"a":[1 2],"z":"v"}`, deep},
		{`{"a":{"b" 1},"z":"v"}`, deep},
		{`{"a":{1:1},"z":"v"}`, deep},
		{`{"a":1 "z":"v"}`, deep},
		{`{"a":[`, deep},
		{`{"z":"v`, deep},
		{`{"z":`, deep},
		{`{"z"`, deep},
		{`{"z":"v\`, deep},
		{`[1,2`, PathFact{Steps: []Step{Index(5)}}},
		{`[1,2]`, PathFact{Steps: []Step{Index(-1)}}},
		{`{"z":{"k":1}}`, PathFact{Steps: []Step{Key("z")}, Value: jsonval.MustParse(`{"k":1}`)}},
		{strings.Repeat(`[`, jsonval.MaxDepth+2) + `1`, PathFact{Steps: []Step{Index(1)}}},
	} {
		got, err := tc.fact.HoldsJSON([]byte(tc.doc))
		if err == nil {
			t.Errorf("HoldsJSON(%s) on %q = %v with no error", tc.fact, tc.doc, got)
		}
	}
}

// TestHoldsJSONZeroAllocs pins the text check at no allocation: the
// store runs it on every segment candidate of an exact find.
func TestHoldsJSONZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	doc := []byte(corpusDoc)
	facts := []PathFact{
		{HasClass: true, Class: ObjectNode},
		{Steps: []Step{Key("meta")}, HasClass: true, Class: ObjectNode},
		{Steps: []Step{Key("meta"), Key("tenant")}, Value: jsonval.Str("t4")},
		{Steps: []Step{Key("payload"), Key("k9"), Index(2), Key("k5")}, Value: jsonval.Str("s78")},
		{Steps: []Step{Key("payload"), Key("k6"), Key("k6"), Index(1)}, Value: jsonval.Num(53)},
	}
	// Non-ASCII keys and strings, and escapes skipped and compared.
	intl := []byte(`{"café":"x\ny","héllo":{"wörld":["∀x","\ud83d\ude00",12]},"z":"é\"q"}`)
	intlFacts := []PathFact{
		{Steps: []Step{Key("z")}, Value: jsonval.Str("é\"q")},
		{Steps: []Step{Key("héllo"), Key("wörld"), Index(2)}, Value: jsonval.Num(12)},
		{Steps: []Step{Key("héllo"), Key("wörld"), Index(1)}, Value: jsonval.Str("😀")},
		{Steps: []Step{Key("café")}, Value: jsonval.Str("x\ny")},
	}
	n := testing.AllocsPerRun(200, func() {
		for _, f := range facts {
			if ok, err := f.HoldsJSON(doc); !ok || err != nil {
				t.Fatalf("HoldsJSON(%s) = %v, %v", f, ok, err)
			}
		}
		for _, f := range intlFacts {
			if ok, err := f.HoldsJSON(intl); !ok || err != nil {
				t.Fatalf("HoldsJSON(%s) = %v, %v", f, ok, err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("HoldsJSON allocates %v times per pass, want 0", n)
	}
}

// FuzzFactText: on any text Parse accepts, HoldsJSON answers every
// derived fact without error and as Holds does on the tree; on any
// other bytes it may answer or fail, but never panics or reads out of
// bounds (the fuzzer's slices are exactly the input). key and val
// build one more fact the document's own shape would not suggest. The
// seeds after the first six are FuzzTokenizerAgrees' token edges —
// invalid UTF-8, lone surrogates, \u0000, leading zeros, 2^64, raw
// control bytes — so the byte-input Lexer is fuzzed on them too.
func FuzzFactText(f *testing.F) {
	for _, seed := range []string{
		corpusDoc,
		`{"a\"b":[1,{"c":"\u00e9\ud83d\ude00"}]}`,
		" [ 0 ,\n\"x\" , { } ] ",
		`{"meta":{"tenant":"t3"}}`,
		`{"a":[1 2]}`,
		`{"z":"v\`,
		"\"\xff\"", "\"caf\xc3\"", "\"\xc3\x28\"", "{\"k\x80\":1}", "\"\xed\xa0\x80\"", "\"\xf4\x90\x80\x80\"", "\"\xef\xbf\xbd\"",
		`"\ud800"`, `"\udc00"`, `"\ud800\u0041"`, `"\ud83d\ude00"`, `"\u0000"`, `"\/"`,
		`{"a":1,"a":2}`, `{"a":{"b":1,"b":2}}`, `{"b":1,"a":2}`,
		`01`, `0`, `00`, `[01]`, `-0`, `1.0`, `1e2`,
		`18446744073709551615`, `18446744073709551616`, `99999999999999999999999`,
		`1 2`, `{} x`, `[] ]`, `"a" "b"`, "1\n", " \t\r\n[ 1 , 2 ] \n", "1\x00", "\xef\xbb\xbf1",
		``, ` `, `[`, `{`, `{"a"`, `{"a":`, `[1,`, `[1,]`, `{,}`, `"`, `"\`, `"\u12`, "\"\x01\"", `true`, `null`,
		"{\"meta\":{\"t\\u0000\":\"\xc3\"}}", "{\"meta\":[01]}", "{\"meta\":18446744073709551616}", "{\"meta\":\"a\tb\"}",
	} {
		f.Add(seed, "meta", "t3", uint8(0))
	}
	f.Fuzz(func(t *testing.T, doc, key, val string, idx uint8) {
		extra := []PathFact{
			{Steps: []Step{Key(key)}, Value: jsonval.Str(val)},
			{Steps: []Step{Key(key), Key(val)}, HasClass: true, Class: Kind(idx % 4)},
			{Steps: []Step{Index(int(idx % 8)), Key(key)}},
			{Steps: []Step{Key(key), Index(int(idx % 8))}, Value: jsonval.Num(uint64(idx))},
		}
		tr, err := Parse(doc)
		if err != nil {
			// Hostile text: any answer or error, but no panic.
			for _, fact := range extra {
				fact.HoldsJSON([]byte(doc))
			}
			return
		}
		for _, fact := range append(textFacts(tr, 32), extra...) {
			got, err := fact.HoldsJSON([]byte(doc))
			if err != nil {
				t.Fatalf("HoldsJSON(%s) on parseable %q: %v", fact, doc, err)
			}
			if want := fact.Holds(tr); got != want {
				t.Fatalf("HoldsJSON(%s) on %q = %v, Holds = %v", fact, doc, got, want)
			}
		}
	})
}
