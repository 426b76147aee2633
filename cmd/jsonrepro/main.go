// Command jsonrepro prints the per-experiment tables of the paper's
// complexity results (PAPER.md): one experiment per Proposition/Theorem,
// each printed as a parameter sweep whose scaling shape is the result
// being reproduced.
//
// Usage:
//
//	jsonrepro            # run every experiment
//	jsonrepro -exp P1,P6 # run a subset
//	jsonrepro -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"jsonlogic/internal/datalog"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jauto"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
	"jsonlogic/internal/schema"
	"jsonlogic/internal/stream"
	"jsonlogic/internal/translate"
	"jsonlogic/internal/xmlenc"
)

type experiment struct {
	id    string
	title string
	run   func()
}

var experiments = []experiment{
	{"P1", "Prop 1: deterministic JNL evaluation is O(|J|·|phi|)", expP1},
	{"P2", "Prop 2: deterministic JNL satisfiability is NP-complete (3SAT)", expP2},
	{"P3", "Prop 3: non-det/recursive evaluation, linear without EQ(a,b)", expP3},
	{"P4", "Prop 4: undecidability via two-counter machines", expP4},
	{"P5", "Prop 5: PSPACE/EXPTIME satisfiability without EQ(a,b)", expP5},
	{"P6", "Prop 6: JSL evaluation, quadratic only through Unique", expP6},
	{"P7", "Prop 7: JSL satisfiability is PSPACE-hard (QBF)", expP7},
	{"P9", "Prop 9: recursive JSL evaluation, PTIME vs unfold", expP9},
	{"P10", "Prop 10: recursive JSL satisfiability via J-automata", expP10},
	{"T1", "Thm 1: JSON Schema = JSL (Table 1 keywords)", expT1},
	{"T2", "Thm 2: JNL = JSL; translation blowup", expT2},
	{"EX5", "Example 5: ¬Unique defines complete binary trees", expEX5},
	{"STREAM", "§6: streaming validation with width-independent memory", expStream},
	{"XML", "§3.2: JSON-tree key lookup vs XML-encoding scan", expXML},
}

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "all", "comma-separated experiment ids, or all")
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-7s %s\n", e.id, e.title)
		}
		return
	}
	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && !want[e.id] {
			continue
		}
		fmt.Printf("== %s — %s ==\n", e.id, e.title)
		e.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "jsonrepro: no experiment matches %q (try -list)\n", *exp)
		os.Exit(1)
	}
}

// timeIt runs f repeatedly until it accumulates enough signal and
// returns the per-run duration.
func timeIt(f func()) time.Duration {
	// Warm up once.
	f()
	runs := 1
	for {
		start := time.Now()
		for i := 0; i < runs; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed > 50*time.Millisecond || runs >= 1<<16 {
			return elapsed / time.Duration(runs)
		}
		runs *= 4
	}
}

func row(cols ...any) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	fmt.Println("  " + strings.Join(parts, "\t"))
}

// --- P1 ---

func detFormula(size int) jnl.Unary {
	parts := make([]jnl.Unary, 0, size/4)
	for i := 0; len(parts) < size/4 || i < 1; i++ {
		k1 := fmt.Sprintf("k%d", i%16)
		k2 := fmt.Sprintf("k%d", (i+7)%16)
		parts = append(parts, jnl.Or{
			Left:  jnl.Exists{Path: jnl.Seq(jnl.Key(k1), jnl.Key(k2))},
			Right: jnl.Not{Inner: jnl.Exists{Path: jnl.Seq(jnl.Key(k2), jnl.At(0))}},
		})
	}
	return jnl.AndAll(parts...)
}

func expP1() {
	row("|J| nodes", "|phi|", "direct", "ns/(|J|·|phi|)", "datalog", "ns/(|J|·|phi|)")
	for _, n := range []int{1000, 8000, 64000} {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		for _, fs := range []int{8, 64} {
			u := detFormula(fs)
			sz := jnl.Size(u)
			direct := timeIt(func() { jnl.NewEvaluator(tree).Eval(u) })
			prog, err := datalog.FromJNL(u)
			if err != nil {
				panic(err)
			}
			dl := timeIt(func() {
				if _, err := datalog.Evaluate(prog, tree); err != nil {
					panic(err)
				}
			})
			den := float64(tree.Len() * sz)
			row(tree.Len(), sz, direct,
				fmt.Sprintf("%.3f", float64(direct.Nanoseconds())/den),
				dl, fmt.Sprintf("%.3f", float64(dl.Nanoseconds())/den))
		}
	}
	fmt.Println("  shape check: the normalised columns should stay roughly flat (linear in |J|·|phi|).")
}

// --- P2 ---

func expP2() {
	row("vars", "clauses", "brute-force", "solver", "agree", "time")
	r := rand.New(rand.NewSource(42))
	for _, vars := range []int{3, 4, 5} {
		clauses := vars + 2
		inst := gen.RandomThreeSAT(r, vars, clauses)
		want := inst.BruteForceSatisfiable()
		u := inst.ToJNL()
		var got bool
		d := timeIt(func() {
			_, sat, err := jauto.SatisfiableJNL(u)
			if err != nil {
				panic(err)
			}
			got = sat
		})
		row(vars, clauses, want, got, want == got, d)
	}
	fmt.Println("  shape check: time grows exponentially with the instance size (NP-hardness).")
}

// --- P3 ---

func expP3() {
	noEQ := jnl.Exists{Path: jnl.Seq(
		jnl.Star{Inner: jnl.Rx(".*")},
		jnl.Test{Inner: jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.Num(7)}},
	)}
	withEQ := jnl.EQPaths{
		Left:  jnl.Seq(jnl.Rx(".*"), jnl.Rx(".*")),
		Right: jnl.Seq(jnl.Rx(".*")),
	}
	row("|J| nodes", "noEQ", "ns/|J|", "withEQ", "withEQ ns/|J|")
	for _, n := range []int{1000, 8000, 64000} {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		d1 := timeIt(func() { jnl.NewEvaluator(tree).Eval(noEQ) })
		d2 := timeIt(func() { jnl.NewEvaluator(tree).Eval(withEQ) })
		row(tree.Len(),
			d1, fmt.Sprintf("%.3f", float64(d1.Nanoseconds())/float64(tree.Len())),
			d2, fmt.Sprintf("%.3f", float64(d2.Nanoseconds())/float64(tree.Len())))
	}
	fmt.Println("  shape check: noEQ ns/|J| stays flat; withEQ ns/|J| grows (superlinear).")
}

// --- P4 ---

func expP4() {
	// A machine that pumps counter 0 up n times and drains it.
	state := func(i int) string { return fmt.Sprintf("q%d", i) }
	pump := func(n int) gen.CounterMachine {
		m := gen.CounterMachine{Start: "q0", Final: "qf", Delta: map[string]gen.CounterTransition{}}
		for i := 0; i < n; i++ {
			next := state(i + 1)
			if i == n-1 {
				next = "loop"
			}
			m.Delta[state(i)] = gen.CounterTransition{Op: gen.OpIncr, Counter: 0, Next: next}
		}
		m.Delta["loop"] = gen.CounterTransition{Op: gen.OpIfZero, Counter: 0, Next: "qf", Else: "dec"}
		m.Delta["dec"] = gen.CounterTransition{Op: gen.OpDecr, Counter: 0, Next: "loop"}
		return m
	}
	row("machine", "halted", "run length", "formula holds on encoding", "holds on corrupted")
	for _, n := range []int{2, 3, 5} {
		m := pump(n)
		states, c0, c1, halted := m.Run(1000)
		doc := gen.EncodeRun(states, c0, c1)
		tr := jsontree.FromValue(doc)
		f := m.HaltingFormula()
		ok := jnl.Holds(tr, f, tr.Root())
		c0[1]++
		bad := jsontree.FromValue(gen.EncodeRun(states, c0, c1))
		c0[1]--
		badOK := jnl.Holds(bad, f, bad.Root())
		row(fmt.Sprintf("pump(%d)", n), halted, len(states), ok, badOK)
	}
	diverge := gen.CounterMachine{Start: "q0", Final: "qf", Delta: map[string]gen.CounterTransition{
		"q0": {Op: gen.OpIncr, Counter: 0, Next: "q0"},
	}}
	states, c0, c1, halted := diverge.Run(12)
	dtr := jsontree.FromValue(gen.EncodeRun(states, c0, c1))
	row("diverge", halted, len(states), jnl.Holds(dtr, diverge.HaltingFormula(), dtr.Root()), "-")
	fmt.Println("  reproduces the reduction behind undecidability: halting <=> the formula is satisfiable,")
	fmt.Println("  witnessed by run encodings; corrupted and diverging runs are rejected.")
}

// --- P5 ---

func expP5() {
	row("family", "param", "satisfiable", "time")
	for _, k := range []int{2, 4, 6} {
		expr := strings.Repeat("(a|b)", k)
		u := jnl.And{
			Left:  jnl.Exists{Path: jnl.Rx(".*")},
			Right: jnl.Not{Inner: jnl.Exists{Path: jnl.Rx(expr)}},
		}
		var sat bool
		d := timeIt(func() {
			_, s, err := jauto.SatisfiableJNL(u)
			if err != nil {
				panic(err)
			}
			sat = s
		})
		row("regex-universality", fmt.Sprintf("k=%d", k), sat, d)
	}
	for _, depth := range []int{2, 4, 8} {
		inner := jnl.Unary(jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.Num(1)})
		for i := 0; i < depth; i++ {
			inner = jnl.Exists{Path: jnl.Seq(jnl.Key("a"), jnl.Test{Inner: inner})}
		}
		u := jnl.Exists{Path: jnl.Seq(jnl.Star{Inner: jnl.Rx("a|b")}, jnl.Test{Inner: inner})}
		var sat bool
		d := timeIt(func() {
			_, s, err := jauto.SatisfiableJNL(u)
			if err != nil {
				panic(err)
			}
			sat = s
		})
		row("recursive-reach", fmt.Sprintf("depth=%d", depth), sat, d)
	}
}

// --- P6 ---

func expP6() {
	f := jsl.AndAll(
		jsl.IsObj{},
		jsl.BoxRe(relang.MustCompile("k.*"), jsl.OrAll(jsl.IsObj{}, jsl.IsArr{}, jsl.IsStr{}, jsl.IsInt{})),
	)
	row("|J| nodes", "no-Unique", "ns/|J|")
	for _, n := range []int{1000, 8000, 64000} {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		d := timeIt(func() {
			if _, err := jsl.NewEvaluator(tree).Eval(f); err != nil {
				panic(err)
			}
		})
		row(tree.Len(), d, fmt.Sprintf("%.3f", float64(d.Nanoseconds())/float64(tree.Len())))
	}
	u := jsl.And{Left: jsl.IsArr{}, Right: jsl.Unique{}}
	row("array elems", "Unique naive (quadratic)", "Unique hashed (ablation)")
	for _, n := range []int{256, 1024, 4096} {
		tree := jsontree.FromValue(gen.ArrayDocument(n, n))
		naive := timeIt(func() {
			ev := jsl.NewEvaluatorOptions(tree, jsl.Options{NaiveUnique: true})
			if _, err := ev.Eval(u); err != nil {
				panic(err)
			}
		})
		hashed := timeIt(func() {
			if _, err := jsl.NewEvaluator(tree).Eval(u); err != nil {
				panic(err)
			}
		})
		row(n, naive, hashed)
	}
	fmt.Println("  shape check: no-Unique ns/|J| flat (linear); naive Unique grows ~x16 per x4 elements")
	fmt.Println("  (quadratic, the Prop 6 bound); the hash-bucketed ablation stays near-linear.")
}

// --- P7 ---

func expP7() {
	row("vars", "clauses", "QBF true", "solver", "agree", "time")
	r := rand.New(rand.NewSource(7))
	for _, vars := range []int{2, 3, 4} {
		q := gen.RandomQBF(r, vars, vars)
		want := q.BruteForceTrue()
		f := q.ToJSL()
		var got bool
		d := timeIt(func() {
			_, s, err := jauto.SatisfiableJSLFormula(f)
			if err != nil {
				panic(err)
			}
			got = s
		})
		row(vars, vars, want, got, want == got, d)
	}
}

// --- P9 ---

func evenDepth() *jsl.Recursive {
	any := relang.MustCompile(".*")
	return &jsl.Recursive{
		Defs: []jsl.Definition{
			{Name: "g1", Body: jsl.BoxRe(any, jsl.Ref{Name: "g2"})},
			{Name: "g2", Body: jsl.And{
				Left:  jsl.DiaRe(any, jsl.True{}),
				Right: jsl.BoxRe(any, jsl.Ref{Name: "g1"}),
			}},
		},
		Base: jsl.Ref{Name: "g1"},
	}
}

func doubling() *jsl.Recursive {
	next := relang.MustCompile("next")
	return &jsl.Recursive{
		Defs: []jsl.Definition{
			{Name: "g", Body: jsl.Or{
				Left: jsl.Not{Inner: jsl.DiaRe(relang.MustCompile(".*"), jsl.True{})},
				Right: jsl.And{
					Left:  jsl.DiaRe(next, jsl.Ref{Name: "g"}),
					Right: jsl.BoxRe(next, jsl.Ref{Name: "g"}),
				},
			}},
		},
		Base: jsl.Ref{Name: "g"},
	}
}

func expP9() {
	r := evenDepth()
	row("tree height", "bottom-up (Prop 9)", "ns/height")
	for _, h := range []int{64, 256, 1024} {
		tree := jsontree.FromValue(gen.DeepDocument(h))
		d := timeIt(func() {
			if _, err := jsl.NewEvaluator(tree).EvalRecursive(r); err != nil {
				panic(err)
			}
		})
		row(h, d, fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(h)))
	}
	dd := doubling()
	row("tree height", "unfold_J reference", "unfold |phi|")
	for _, h := range []int{4, 8, 12} {
		tree := jsontree.FromValue(gen.DeepDocument(h))
		var sz int
		d := timeIt(func() {
			f := dd.Unfold(h)
			sz = jslSize(f)
			if _, err := jsl.NewEvaluator(tree).Eval(f); err != nil {
				panic(err)
			}
		})
		row(h, d, sz)
	}
	fmt.Println("  shape check: bottom-up is linear in height; unfold doubles per height step.")
}

func jslSize(f jsl.Formula) int {
	n := 1
	switch t := f.(type) {
	case jsl.Not:
		n += jslSize(t.Inner)
	case jsl.And:
		n += jslSize(t.Left) + jslSize(t.Right)
	case jsl.Or:
		n += jslSize(t.Left) + jslSize(t.Right)
	case jsl.DiamondKey:
		n += jslSize(t.Inner)
	case jsl.BoxKey:
		n += jslSize(t.Inner)
	case jsl.DiamondIdx:
		n += jslSize(t.Inner)
	case jsl.BoxIdx:
		n += jslSize(t.Inner)
	}
	return n
}

// --- P10 ---

func expP10() {
	row("family", "satisfiable", "witness", "time")
	for _, fam := range []struct {
		name string
		expr *jsl.Recursive
	}{
		{"evenDepth (Ex 2)", evenDepth()},
		{"completeBinary (Ex 5, with Unique)", completeBinaryTrees()},
		{"unsat: obj and str", jsl.NonRecursive(jsl.And{Left: jsl.IsObj{}, Right: jsl.IsStr{}})},
	} {
		var w *jsonval.Value
		var sat bool
		d := timeIt(func() {
			var err error
			w, sat, err = jauto.SatisfiableJSL(fam.expr)
			if err != nil {
				panic(err)
			}
		})
		witness := "-"
		if sat {
			witness = w.String()
			if len(witness) > 40 {
				witness = witness[:40] + "…"
			}
		}
		row(fam.name, sat, witness, d)
	}
}

func completeBinaryTrees() *jsl.Recursive {
	return &jsl.Recursive{
		Defs: []jsl.Definition{
			{Name: "g", Body: jsl.Or{
				Left: jsl.Not{Inner: jsl.DiamondIdx{Lo: 0, Hi: 0, Inner: jsl.True{}}},
				Right: jsl.AndAll(
					jsl.MinCh{K: 2}, jsl.MaxCh{K: 2},
					jsl.Not{Inner: jsl.Unique{}},
					jsl.BoxIdx{Lo: 0, Hi: 1, Inner: jsl.Ref{Name: "g"}},
				),
			}},
		},
		Base: jsl.Ref{Name: "g"},
	}
}

// --- T1 ---

const table1Schema = `{
	"type": "object",
	"minProperties": 2,
	"maxProperties": 16,
	"required": ["name", "age"],
	"properties": {
		"name": {"type": "string", "pattern": "[A-Za-z ]+"},
		"age": {"type": "number", "minimum": 0, "maximum": 150},
		"scores": {
			"type": "array",
			"items": [{"type": "number"}, {"type": "number"}],
			"additionalItems": {"type": "number", "multipleOf": 2},
			"uniqueItems": 1
		}
	},
	"patternProperties": {
		"x-.*": {"anyOf": [{"type": "string"}, {"type": "number"}]}
	},
	"additionalProperties": {"not": {"type": "array"}}
}`

func expT1() {
	s := schema.MustParse(table1Schema)
	docs := []string{
		`{"name":"Sue Storm","age":34,"scores":[7,11,2,4,8],"x-note":"ext","extra":{"n":1}}`,
		`{"name":"Sue Storm","age":200}`,
		`{"name":"Sue"}`,
		`{"name":"Sue","age":3,"scores":[7,11,3]}`,
		`{"name":"Sue","age":3,"extra":[1]}`,
	}
	r, err := s.ToJSL()
	if err != nil {
		panic(err)
	}
	row("document", "direct validator", "via JSL (Thm 1)", "agree")
	for _, d := range docs {
		doc := jsonval.MustParse(d)
		direct, err := s.Validate(doc)
		if err != nil {
			panic(err)
		}
		tree := jsontree.FromValue(doc)
		via, err := jsl.NewEvaluator(tree).HoldsRecursive(r)
		if err != nil {
			panic(err)
		}
		name := d
		if len(name) > 48 {
			name = name[:48] + "…"
		}
		row(name, direct, via, direct == via)
	}
	doc := jsonval.MustParse(docs[0])
	tree := jsontree.FromValue(doc)
	dDirect := timeIt(func() {
		if _, err := s.Validate(doc); err != nil {
			panic(err)
		}
	})
	dVia := timeIt(func() {
		if _, err := jsl.NewEvaluator(tree).HoldsRecursive(r); err != nil {
			panic(err)
		}
	})
	row("timing", dDirect, dVia, "-")
}

// --- T2 ---

func expT2() {
	row("direction", "k", "in size", "out size", "ratio")
	for _, k := range []int{2, 4, 6, 8} {
		path := jnl.Binary(jnl.Alt{Left: jnl.Key("a0"), Right: jnl.Key("b0")})
		for i := 1; i < k; i++ {
			path = jnl.Concat{Left: path, Right: jnl.Alt{Left: jnl.Key(fmt.Sprintf("a%d", i)), Right: jnl.Key(fmt.Sprintf("b%d", i))}}
		}
		u := jnl.Exists{Path: path}
		f, err := translate.JNLToJSL(u)
		if err != nil {
			panic(err)
		}
		in, out := jnl.Size(u), jslSize(f)
		row("JNL->JSL (Alt chain)", k, in, out, fmt.Sprintf("%.2f", float64(out)/float64(in)))
	}
	for _, k := range []int{8, 32, 128} {
		f := jsl.Formula(jsl.True{})
		for i := 0; i < k; i++ {
			f = jsl.And{Left: jsl.DiaWord(fmt.Sprintf("w%d", i), jsl.True{}), Right: f}
		}
		u, err := translate.JSLToJNL(f)
		if err != nil {
			panic(err)
		}
		in, out := jslSize(f), jnl.Size(u)
		row("JSL->JNL", k, in, out, fmt.Sprintf("%.2f", float64(out)/float64(in)))
	}
	fmt.Println("  shape check: JSL->JNL stays linear (ratio ~2); JNL->JSL doubles per Alt (the Thm 2 remark).")
}

// --- EX5 ---

func expEX5() {
	expr := completeBinaryTrees()
	complete := func(h int) *jsonval.Value {
		v := jsonval.MustObj()
		for i := 0; i < h; i++ {
			v = jsonval.Arr(v, v)
		}
		return v
	}
	lopsided := jsonval.Arr(jsonval.Arr(jsonval.MustObj(), jsonval.MustObj()), jsonval.MustObj())
	unequal := jsonval.Arr(jsonval.MustObj(), jsonval.Str("x"))
	row("document", "accepted")
	for _, c := range []struct {
		name string
		doc  *jsonval.Value
	}{
		{"complete height 0", complete(0)},
		{"complete height 2", complete(2)},
		{"complete height 4", complete(4)},
		{"lopsided", lopsided},
		{"two unequal children", unequal},
	} {
		tree := jsontree.FromValue(c.doc)
		ok, err := jsl.NewEvaluator(tree).HoldsRecursive(expr)
		if err != nil {
			panic(err)
		}
		row(c.name, ok)
	}
	fmt.Println("  reproduces the beyond-MSO example: only complete binary trees are accepted.")
}

// --- STREAM ---

func expStream() {
	f := jsl.BoxRe(relang.MustCompile(".*"), jsl.IsInt{})
	v, err := stream.NewValidatorFormula(f)
	if err != nil {
		panic(err)
	}
	row("document shape", "bytes", "valid", "max open frames", "time")
	for _, width := range []int{100, 10000, 1000000} {
		var sb strings.Builder
		sb.WriteByte('{')
		for i := 0; i < width; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "\"k%d\":%d", i, i)
		}
		sb.WriteByte('}')
		doc := sb.String()
		var ok bool
		var stats stream.Stats
		d := timeIt(func() {
			ok, stats, err = v.ValidateStats(strings.NewReader(doc))
			if err != nil {
				panic(err)
			}
		})
		row(fmt.Sprintf("width %d", width), len(doc), ok, stats.MaxFrames, d)
	}
	for _, depth := range []int{10, 1000} {
		doc := strings.Repeat(`{"n":`, depth) + "0" + strings.Repeat("}", depth)
		vv, err := stream.NewValidatorFormula(jsl.True{})
		if err != nil {
			panic(err)
		}
		ok, stats, err := vv.ValidateStats(strings.NewReader(doc))
		if err != nil {
			panic(err)
		}
		row(fmt.Sprintf("depth %d", depth), len(doc), ok, stats.MaxFrames, "-")
	}
	fmt.Println("  reproduces the §6 conjecture for deterministic JSL without tree equality:")
	fmt.Println("  memory (open frames) is constant in width and linear only in nesting depth.")
}

// --- XML ---

func expXML() {
	row("object width", "jsontree ChildByKey", "xmlenc child scan", "scan/tree ratio")
	for _, width := range []int{16, 256, 4096} {
		doc := gen.WideDocument(width)
		tree := jsontree.FromValue(doc)
		enc := xmlenc.Encode(doc)
		keys := doc.Keys()
		sort.Strings(keys)
		probe := keys[len(keys)-1] // worst case for the scan
		dTree := timeIt(func() {
			if tree.ChildByKey(tree.Root(), probe) == jsontree.InvalidNode {
				panic("missing key")
			}
		})
		dScan := timeIt(func() {
			if enc.ChildByKeyScan(probe) == nil {
				panic("missing key")
			}
		})
		ratio := float64(dScan.Nanoseconds()) / float64(max64(1, dTree.Nanoseconds()))
		row(width, dTree, dScan, fmt.Sprintf("%.1f", ratio))
	}
	fmt.Println("  reproduces the §3.2 argument: keys as node labels force an O(fanout) scan,")
	fmt.Println("  while the deterministic JSON tree model keeps lookups logarithmic.")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
