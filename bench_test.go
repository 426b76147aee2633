// Benchmarks reproducing the complexity results of the paper's
// "evaluation" (Propositions 1–10 and Theorems 1–2; see PAPER.md). One
// benchmark family per result; cmd/jsonrepro prints the same sweeps as
// tables.
//
// The paper states asymptotic bounds rather than wall-clock numbers, so
// each family sweeps the relevant parameter and the *shape* of the
// series (linear vs quadratic vs cubic vs exponential) is the result
// being reproduced.
package jsonlogic

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"jsonlogic/internal/datalog"
	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jauto"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
	"jsonlogic/internal/schema"
	"jsonlogic/internal/store"
	"jsonlogic/internal/stream"
	"jsonlogic/internal/translate"
	"jsonlogic/internal/xmlenc"
)

// detFormula builds a deterministic JNL formula of roughly the given
// size (number of operators) probing keys the generator uses.
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

var docSizes = []int{1000, 8000, 64000}

// BenchmarkP1EvalDeterministic reproduces Proposition 1: deterministic
// JNL evaluation in O(|J|·|φ|). ns/op should grow linearly in the doc
// axis and in the formula axis.
func BenchmarkP1EvalDeterministic(b *testing.B) {
	for _, n := range docSizes {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		for _, fs := range []int{8, 64} {
			u := detFormula(fs)
			b.Run(fmt.Sprintf("doc=%d/phi=%d", tree.Len(), fs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev := jnl.NewEvaluator(tree)
					if ev.Eval(u) == nil {
						b.Fatal("nil result")
					}
				}
			})
		}
	}
}

// BenchmarkP1EvalDatalog evaluates the same formulas through the
// monadic-datalog translation the proof of Proposition 1 uses; the
// series must show the same linear shape as the direct evaluator.
func BenchmarkP1EvalDatalog(b *testing.B) {
	for _, n := range docSizes {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		u := detFormula(8)
		prog, err := datalog.FromJNL(u)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("doc=%d/phi=8", tree.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := datalog.Evaluate(prog, tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2Sat3SAT reproduces Proposition 2: satisfiability of
// deterministic positive JNL is NP-complete. The 3SAT reduction is the
// hardness direction; time grows exponentially with the variable count.
func BenchmarkP2Sat3SAT(b *testing.B) {
	for _, vars := range []int{3, 4, 5} {
		r := rand.New(rand.NewSource(int64(vars)))
		inst := gen.RandomThreeSAT(r, vars, vars+2)
		u := inst.ToJNL()
		b.Run(fmt.Sprintf("vars=%d/clauses=%d", vars, vars+2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := jauto.SatisfiableJNL(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP3EvalNoEQ reproduces the linear half of Proposition 3:
// recursive non-deterministic JNL without EQ(α,β) evaluates in
// O(|J|·|φ|) via the PDL-style model checker.
func BenchmarkP3EvalNoEQ(b *testing.B) {
	// Descendant query: some node reachable over any path satisfies a test.
	u := jnl.Exists{Path: jnl.Seq(
		jnl.Star{Inner: jnl.Rx(".*")},
		jnl.Test{Inner: jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.Num(7)}},
	)}
	for _, n := range docSizes {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		b.Run(fmt.Sprintf("doc=%d", tree.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := jnl.NewEvaluator(tree)
				_ = ev.Eval(u)
			}
		})
	}
}

// BenchmarkP3EvalWithEQ reproduces the cubic half of Proposition 3:
// EQ(α,β) with non-deterministic paths forces the per-node product
// search. The series grows superlinearly in |J|.
func BenchmarkP3EvalWithEQ(b *testing.B) {
	u := jnl.EQPaths{
		Left:  jnl.Seq(jnl.Rx(".*"), jnl.Rx(".*")),
		Right: jnl.Seq(jnl.Rx(".*")),
	}
	for _, n := range []int{300, 3000, 30000} {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		b.Run(fmt.Sprintf("doc=%d", tree.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := jnl.NewEvaluator(tree)
				_ = ev.Eval(u)
			}
		})
	}
}

// BenchmarkP5SatNonRecursive reproduces the PSPACE satisfiability of
// non-deterministic non-recursive JNL without EQ(α,β): the
// regex-universality family from the hardness proof, [X_Σ*] ∧ [X_e].
func BenchmarkP5SatNonRecursive(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		// e = (a|b){k} is universal over words of length k on {a,b}.
		re := "(a|b)"
		expr := re
		for i := 1; i < k; i++ {
			expr += re
		}
		u := jnl.And{
			Left:  jnl.Exists{Path: jnl.Rx(".*")},
			Right: jnl.Not{Inner: jnl.Exists{Path: jnl.Rx(expr)}},
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := jauto.SatisfiableJNL(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP5SatRecursive reproduces the EXPTIME satisfiability of
// recursive non-deterministic JNL without EQ(α,β): reachability of a
// deep obligation through a Kleene star.
func BenchmarkP5SatRecursive(b *testing.B) {
	for _, depth := range []int{2, 4, 8} {
		inner := jnl.Unary(jnl.EQDoc{Path: jnl.Epsilon{}, Doc: jsonval.Num(1)})
		for i := 0; i < depth; i++ {
			inner = jnl.Exists{Path: jnl.Seq(jnl.Key("a"), jnl.Test{Inner: inner})}
		}
		u := jnl.Exists{Path: jnl.Seq(jnl.Star{Inner: jnl.Rx("a|b")}, jnl.Test{Inner: inner})}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := jauto.SatisfiableJNL(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP6EvalNoUnique reproduces the linear half of Proposition 6:
// JSL evaluation without uniqueItems is O(|J|·|φ|).
func BenchmarkP6EvalNoUnique(b *testing.B) {
	f := jsl.AndAll(
		jsl.IsObj{},
		jsl.BoxRe(relang.MustCompile("k.*"), jsl.Or{Left: jsl.IsObj{}, Right: jsl.Or{Left: jsl.IsArr{}, Right: jsl.Or{Left: jsl.IsStr{}, Right: jsl.IsInt{}}}}),
		jsl.MinCh{K: 1},
	)
	for _, n := range docSizes {
		tree := jsontree.FromValue(gen.SizedDocument(1, n))
		b.Run(fmt.Sprintf("doc=%d", tree.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := jsl.NewEvaluator(tree)
				if _, err := ev.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP6EvalUnique reproduces the quadratic half of Proposition 6:
// uniqueItems with the naive pairwise comparison the bound assumes. The
// hash-bucketed production check is the ablation baseline.
func BenchmarkP6EvalUnique(b *testing.B) {
	f := jsl.And{Left: jsl.IsArr{}, Right: jsl.Unique{}}
	for _, n := range []int{256, 1024, 4096} {
		doc := gen.ArrayDocument(n, n) // all-distinct: worst case for pairwise
		tree := jsontree.FromValue(doc)
		for _, naive := range []bool{true, false} {
			name := fmt.Sprintf("elems=%d/naive=%v", n, naive)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev := jsl.NewEvaluatorOptions(tree, jsl.Options{NaiveUnique: naive})
					if _, err := ev.Eval(f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkP7SatQBF reproduces Proposition 7: JSL satisfiability is
// PSPACE-hard via the QBF reduction; time grows exponentially in the
// number of quantified variables.
func BenchmarkP7SatQBF(b *testing.B) {
	for _, vars := range []int{2, 3, 4} {
		r := rand.New(rand.NewSource(int64(vars)))
		q := gen.RandomQBF(r, vars, vars)
		f := q.ToJSL()
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := jauto.SatisfiableJSLFormula(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// evenDepth is the recursive JSL expression of Example 2 (every
// root-to-leaf path has even length).
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

// BenchmarkP9BottomUp reproduces the PTIME half of Proposition 9:
// bottom-up evaluation of recursive JSL over trees of growing height.
func BenchmarkP9BottomUp(b *testing.B) {
	r := evenDepth()
	for _, h := range []int{64, 256, 1024} {
		tree := jsontree.FromValue(gen.DeepDocument(h))
		b.Run(fmt.Sprintf("height=%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := jsl.NewEvaluator(tree)
				if _, err := ev.EvalRecursive(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// doubling is a recursive JSL expression whose definition body
// mentions its symbol twice, so unfold_J grows as 2^height while the
// bottom-up evaluation of Proposition 9 stays linear.
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

// BenchmarkP9Unfold is the ablation for Proposition 9: the unfold_J
// reference semantics is exponential in the tree height (the doubling
// family mentions its symbol twice per definition), so only small
// heights are feasible.
func BenchmarkP9Unfold(b *testing.B) {
	r := doubling()
	for _, h := range []int{4, 8, 12} {
		tree := jsontree.FromValue(gen.DeepDocument(h))
		b.Run(fmt.Sprintf("height=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := r.Unfold(h)
				ev := jsl.NewEvaluator(tree)
				if _, err := ev.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP10Nonemptiness reproduces Proposition 10: non-emptiness of
// J-automata compiled from recursive JSL, with and without Unique (the
// Unique variant pays the extra exponential of child-multiset counting).
func BenchmarkP10Nonemptiness(b *testing.B) {
	families := []struct {
		name string
		expr *jsl.Recursive
	}{
		{"evenDepth", evenDepth()},
		{"completeBinary", completeBinaryTrees()},
	}
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := jauto.SatisfiableJSL(fam.expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// completeBinaryTrees is the Example 5 expression: ¬Unique forces both
// children equal, so models are exactly complete binary trees.
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

// BenchmarkT1Validation reproduces Table 1: validating documents against
// a schema exercising every keyword group, both through the direct
// validator and through the Theorem 1 translation to JSL.
func BenchmarkT1Validation(b *testing.B) {
	s := schema.MustParse(table1Schema)
	doc := jsonval.MustParse(table1Doc)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Validate(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	r, err := s.ToJSL()
	if err != nil {
		b.Fatal(err)
	}
	tree := jsontree.FromValue(doc)
	b.Run("viaJSL", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev := jsl.NewEvaluator(tree)
			if _, err := ev.HoldsRecursive(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

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

const table1Doc = `{
	"name": "Sue Storm",
	"age": 34,
	"scores": [7, 11, 2, 4, 8],
	"x-note": "extension",
	"extra": {"nested": 1}
}`

// BenchmarkT2TranslationBlowup reproduces the Theorem 2 remark: JSL→JNL
// is polynomial while JNL→JSL can be exponential. The custom metric
// outSize/inSize records the blowup of the formula being translated.
func BenchmarkT2TranslationBlowup(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		// (X_a1 | X_b1) ∘ (X_a2 | X_b2) ∘ … chains: each union of paths
		// duplicates the continuation in the translation, so the JSL
		// rendition doubles per composition (the Theorem 2 remark).
		path := jnl.Binary(jnl.Alt{Left: jnl.Key("a0"), Right: jnl.Key("b0")})
		for i := 1; i < k; i++ {
			step := jnl.Alt{Left: jnl.Key(fmt.Sprintf("a%d", i)), Right: jnl.Key(fmt.Sprintf("b%d", i))}
			path = jnl.Concat{Left: path, Right: step}
		}
		u := jnl.Exists{Path: path}
		b.Run(fmt.Sprintf("JNLtoJSL/k=%d", k), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				f, err := translate.JNLToJSL(u)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(jslSize(f)) / float64(jnl.Size(u))
			}
			b.ReportMetric(ratio, "size-ratio")
		})
	}
	for _, k := range []int{8, 32, 128} {
		f := jsl.Formula(jsl.True{})
		for i := 0; i < k; i++ {
			f = jsl.And{Left: jsl.DiaWord(fmt.Sprintf("w%d", i), jsl.True{}), Right: f}
		}
		b.Run(fmt.Sprintf("JSLtoJNL/k=%d", k), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				u, err := translate.JSLToJNL(f)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(jnl.Size(u)) / float64(jslSize(f))
			}
			b.ReportMetric(ratio, "size-ratio")
		})
	}
}

// jslSize counts AST nodes of a JSL formula.
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

// --- Ablation benchmarks: each fast path against the naive algorithm ---

// BenchmarkAblationSubtreeEquality compares the hash-class subtree
// equality against the naive recursive comparison inside EQ-heavy
// evaluation.
func BenchmarkAblationSubtreeEquality(b *testing.B) {
	u := jnl.EQPaths{Left: jnl.Key("k1"), Right: jnl.Key("k2")}
	for _, n := range []int{1000, 8000} {
		tree := jsontree.FromValue(gen.SizedDocument(3, n))
		for _, naive := range []bool{false, true} {
			b.Run(fmt.Sprintf("doc=%d/naive=%v", tree.Len(), naive), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ev := jnl.NewEvaluatorOptions(tree, jnl.Options{NaiveEquality: naive})
					_ = ev.Eval(u)
				}
			})
		}
	}
}

// BenchmarkAblationUnique compares hash-bucketed against pairwise
// uniqueItems on arrays with duplicates present (early-exit friendly)
// and absent (worst case).
func BenchmarkAblationUnique(b *testing.B) {
	f := jsl.And{Left: jsl.IsArr{}, Right: jsl.Unique{}}
	for _, dup := range []bool{false, true} {
		n := 2048
		k := n
		if dup {
			k = n / 2
		}
		tree := jsontree.FromValue(gen.ArrayDocument(n, k))
		for _, naive := range []bool{false, true} {
			b.Run(fmt.Sprintf("dups=%v/naive=%v", dup, naive), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ev := jsl.NewEvaluatorOptions(tree, jsl.Options{NaiveUnique: naive})
					if _, err := ev.Eval(f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationRegexEdges measures the Proposition 3 preprocessing:
// evaluating a regex axis with the per-tree edge marks (cached in the
// evaluator) versus re-matching per evaluation with a cold evaluator.
func BenchmarkAblationRegexEdges(b *testing.B) {
	u := jnl.Exists{Path: jnl.Seq(jnl.Rx("k(1|3|5)"), jnl.Rx(".*"))}
	tree := jsontree.FromValue(gen.SizedDocument(5, 16000))
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := jnl.NewEvaluator(tree)
			_ = ev.Eval(u)
		}
	})
	b.Run("warm", func(b *testing.B) {
		ev := jnl.NewEvaluator(tree)
		for i := 0; i < b.N; i++ {
			_ = ev.Eval(u)
		}
	})
}

// BenchmarkAblationXMLKeyLookup measures the §3.2 modelling argument:
// worst-case key lookup on a wide object in the deterministic JSON
// tree versus the XML-style encoding's child scan.
func BenchmarkAblationXMLKeyLookup(b *testing.B) {
	for _, width := range []int{16, 256, 4096} {
		doc := gen.WideDocument(width)
		tree := jsontree.FromValue(doc)
		enc := xmlenc.Encode(doc)
		probe := fmt.Sprintf("k%06d", width-1)
		b.Run(fmt.Sprintf("tree/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tree.ChildByKey(tree.Root(), probe) == jsontree.InvalidNode {
					b.Fatal("missing key")
				}
			}
		})
		b.Run(fmt.Sprintf("xmlscan/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if enc.ChildByKeyScan(probe) == nil {
					b.Fatal("missing key")
				}
			}
		})
	}
}

// --- Engine benchmarks (plan caching and batch parallelism) ---

// BenchmarkEnginePlanCache measures what the plan cache saves: a cache
// hit versus a full parse + translate + normalize per request, for each
// front-end language. The "miss" series is the per-request cost every
// front end paid before the engine layer existed.
func BenchmarkEnginePlanCache(b *testing.B) {
	queries := []struct {
		lang engine.Language
		src  string
	}{
		{engine.LangJNL, `[(/~"k.*")* <eq(/k1, 7)>] && !eq(/k2, "s1")`},
		{engine.LangJSL, `object && some(~"k.*", (number && min(1)) || string)`},
		{engine.LangJSONPath, `$..k1[?(@.k2 >= 3)]`},
		{engine.LangMongoFind, `{"k1": {"$gte": 3}, "$or": [{"k2": "s1"}, {"k3.k4": {"$exists": 1}}]}`},
	}
	for _, q := range queries {
		b.Run(fmt.Sprintf("%s/miss", q.lang), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Compile(q.lang, q.src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/hit", q.lang), func(b *testing.B) {
			e := engine.New(engine.Options{})
			if _, err := e.Compile(q.lang, q.src); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Compile(q.lang, q.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSemanticCompile measures the semantic pass the engine
// runs on plan-cache misses (Proposition 7 satisfiability, plus the
// containment dedup scan) and pins the hit path with the pass enabled:
// cache hits skip the pass entirely, so the hit series must match the
// semantics-off plan cache at 0 allocs/op.
func BenchmarkEngineSemanticCompile(b *testing.B) {
	families := []struct {
		name string
		lang engine.Language
		a, z string
	}{
		{"sat", engine.LangJSL,
			`object && some(~"k.*", (number && min(1)) || string)`,
			`object && some(~"j.*", (number && max(9)) || string)`},
		{"unsat", engine.LangJNL,
			`([/k0] && !([/k0]))`,
			`([/k1] && !([/k1]))`},
	}
	for _, f := range families {
		b.Run(f.name+"/miss", func(b *testing.B) {
			// A size-1 cache with two alternating sources makes every
			// compile a miss running the full semantic pass.
			e := engine.New(engine.Options{PlanCacheSize: 1, SemanticBudget: 50000})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := f.a
				if i%2 == 1 {
					src = f.z
				}
				if _, err := e.Compile(f.lang, src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.name+"/hit", func(b *testing.B) {
			e := engine.New(engine.Options{PlanCacheSize: 64, SemanticBudget: 50000})
			if _, err := e.Compile(f.lang, f.a); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Compile(f.lang, f.a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTenantQuery is the tenant find of jsonbench's query-cold pass,
// "meta.tenant = t<x>", in mongo, JNL or JSL by x mod 3.
func benchTenantQuery(x int) (engine.Language, string) {
	switch x % 3 {
	case 0:
		return engine.LangMongoFind, fmt.Sprintf(`{"meta.tenant":"t%d"}`, x)
	case 1:
		return engine.LangJNL, fmt.Sprintf(`eq(/meta/tenant, "t%d")`, x)
	}
	return engine.LangJSL, fmt.Sprintf(`some("meta", some("tenant", eq("t%d")))`, x)
}

// BenchmarkEngineCompileMiss measures one plan-cache miss of a tenant
// find with the daemon's semantic pass (SemanticBudget 50 000), on an
// empty cache and with a full dedup window of other tenants' plans
// resident — the daemon's state after its first few requests. The
// resident plans' find facts contradict the new one's, so the dedup
// scan skips their containment proofs and resident=8 should cost about
// what resident=0 does.
func BenchmarkEngineCompileMiss(b *testing.B) {
	for _, resident := range []int{0, 8} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := engine.New(engine.Options{SemanticBudget: 50000})
				for y := 0; y < resident; y++ {
					if _, err := e.Compile(benchTenantQuery(1000 + y)); err != nil {
						b.Fatal(err)
					}
				}
				lang, src := benchTenantQuery(i % 100)
				b.StartTimer()
				if _, err := e.Compile(lang, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineEvalZeroAlloc pins the pooled-executor acceptance
// criterion: with the plan cached and the result buffer reused, a
// steady-state Validate and a predicate-path Eval perform zero
// allocations per evaluated document — the executor's memo tables,
// regex memo and scratch sets all come from the pool on the compiled
// program. "select-descend" is JSONPath selection through a recursive
// descent ($..k10.k1) on corpusDoc: the set-at-a-time enumerators pass
// their node sets in pooled buffers, so it allocates nothing either.
func BenchmarkEngineEvalZeroAlloc(b *testing.B) {
	e := engine.New(engine.Options{})
	src := `{"meta.tenant": "t7", "meta.seq": {"$gte": 100}}`
	plan, err := e.Compile(engine.LangMongoFind, src)
	if err != nil {
		b.Fatal(err)
	}
	tree := jsontree.MustParse(`{"meta":{"tenant":"t7","seq":4096},"payload":{"a":[1,2,3],"b":"x"}}`)
	b.Run("validate", func(b *testing.B) {
		if _, err := e.Validate(plan, tree); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := e.Validate(plan, tree)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("eval-append", func(b *testing.B) {
		buf := make([]jsontree.NodeID, 0, tree.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = e.EvalAppend(plan, tree, buf[:0])
			if err != nil || len(buf) != 1 {
				b.Fatalf("selected %d nodes, err %v", len(buf), err)
			}
		}
	})
	b.Run("select-descend", func(b *testing.B) {
		plan, err := e.Compile(engine.LangJSONPath, `$..k10.k1`)
		if err != nil {
			b.Fatal(err)
		}
		tree := jsontree.MustParse(corpusDoc)
		buf := make([]jsontree.NodeID, 0, tree.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = e.EvalAppend(plan, tree, buf[:0])
			if err != nil || len(buf) != 1 {
				b.Fatalf("selected %d nodes, err %v", len(buf), err)
			}
		}
	})
}

// corpusDoc is a document shaped like the benchmark corpus (see
// benchmark/jsonbench/corpus.go): a meta block and a three-level
// payload, 327 bytes, keys in the sorted order the store writes.
const corpusDoc = `{"meta":{"region":"r4","seq":4,"tenant":"t4"},"payload":{"k10":{"k0":{"k1":59,"k10":"s30","k9":89},"k1":{"k10":"s12","k3":"s46","k7":16},"k2":{"k3":87,"k6":59}},"k6":{"k10":{"k10":87,"k2":21,"k9":56},"k4":{"k0":"s2","k2":31,"k9":"s74"},"k6":[73,53,27]},"k9":[["s71","s40",81],[9,56,"s80"],{"k0":"s65","k11":"s80","k5":"s78"}]}}`

// BenchmarkTreeParse measures building one stored document's tree —
// ns/op and allocs/op are per document. "parse" is jsontree.Parse,
// the route of segment resolves, WAL replay, Store.Put and /bulk;
// "reader" is engine.BuildTree over a strings.Reader and a reused
// Builder: the same parse plus reading the input into a string, as
// PUT /docs does before it parses.
func BenchmarkTreeParse(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(corpusDoc)))
		for i := 0; i < b.N; i++ {
			if _, err := jsontree.Parse(corpusDoc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reader", func(b *testing.B) {
		builder := jsontree.NewBuilder()
		b.ReportAllocs()
		b.SetBytes(int64(len(corpusDoc)))
		for i := 0; i < b.N; i++ {
			if _, err := engine.BuildTree(strings.NewReader(corpusDoc), builder); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineValidateNDJSON measures the end-to-end NDJSON path —
// split lines, parse trees through the pooled builders, validate — on the
// engine's GOMAXPROCS reader workers. B/op covers parsing and
// evaluation for the whole batch.
func BenchmarkEngineValidateNDJSON(b *testing.B) {
	plan := engine.MustCompile(engine.LangMongoFind, `{"value": {"$lte": 4096}, "sensor": {"$type": "string"}}`)
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, `{"sensor":"s%d","value":%d,"status":"ok","seq":%d}`+"\n", i%32, i%4000, i)
	}
	input := sb.String()
	e := engine.New(engine.Options{})
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			results, err := e.ValidateReader(plan, strings.NewReader(input))
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != 2000 {
				b.Fatalf("got %d results", len(results))
			}
		}
	})
}

// BenchmarkStreamValidate measures the §6 streaming validator: a wide
// flat document at three sizes. ns/op grows linearly with size while
// B/op stays width-independent (frames, not nodes, are allocated).
func BenchmarkStreamValidate(b *testing.B) {
	f := jsl.BoxRe(relang.MustCompile(".*"), jsl.IsInt{})
	v, err := stream.NewValidatorFormula(f)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1000, 10000, 100000} {
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
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				ok, err := v.Validate(strings.NewReader(doc))
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// ---- Storage tier (internal/store): indexed queries vs full scans ----

// storeBenchCache holds one populated store per size so the expensive
// build is shared by all store benchmarks of a run.
var storeBenchCache = map[int]*store.Store{}

// storeBenchSizes are the collection sizes the acceptance criterion
// names: the indexed path must beat the scan at the largest size.
var storeBenchSizes = []int{10000, 100000}

// benchStore builds (once per size) a collection of small mixed
// documents: a deterministic "meta" header the queries probe — tenant
// t0..t63 cycling, a sequence number — a random payload subtree, and a
// "rare" marker on every 128th document for the presence-index
// benchmark.
func benchStore(n int) *store.Store {
	if s, ok := storeBenchCache[n]; ok {
		return s
	}
	r := rand.New(rand.NewSource(42))
	s := store.New(store.Options{Shards: 16})
	payload := gen.DocOptions{Fanout: 2, Depth: 2, Keys: 10, ArrayBias: 40, ValueRange: 30}
	for i := 0; i < n; i++ {
		members := []jsonval.Member{
			{Key: "meta", Value: jsonval.MustObj(
				jsonval.Member{Key: "tenant", Value: jsonval.Str(fmt.Sprintf("t%d", i%64))},
				jsonval.Member{Key: "seq", Value: jsonval.Num(uint64(i))},
			)},
			{Key: "payload", Value: gen.Document(r, payload)},
		}
		if i%128 == 0 {
			members = append(members, jsonval.Member{Key: "rare", Value: jsonval.Num(uint64(i))})
		}
		s.PutTree(fmt.Sprintf("doc%07d", i), jsontree.FromValue(jsonval.MustObj(members...)))
	}
	storeBenchCache[n] = s
	return s
}

// BenchmarkStoreFindMongo compares the indexed document-matching path
// (value-term posting intersection → candidate eval) against the full
// scan for a selective mongo filter (1/64 of the collection matches).
// The gap must widen with collection size: the indexed series grows
// with the result set, the scan series with the collection.
func BenchmarkStoreFindMongo(b *testing.B) {
	plan := engine.MustCompile(engine.LangMongoFind, `{"meta.tenant":"t7"}`)
	for _, n := range storeBenchSizes {
		s := benchStore(n)
		want := (n + 56) / 64 // i%64==7 matches: i = 7, 71, …
		b.Run(fmt.Sprintf("indexed/docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, _, err := s.Find(plan)
				if err != nil || len(ids) != want {
					b.Fatalf("got %d docs (err %v), want %d", len(ids), err, want)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, err := s.FindScan(plan)
				if err != nil || len(ids) != want {
					b.Fatalf("got %d docs (err %v), want %d", len(ids), err, want)
				}
			}
		})
	}
}

// BenchmarkStoreSelectJSONPath measures node selection through the
// presence index: $.rare anchors at a key only 1/128 of the documents
// carry, so the posting list is the candidate set.
func BenchmarkStoreSelectJSONPath(b *testing.B) {
	plan := engine.MustCompile(engine.LangJSONPath, `$.rare`)
	for _, n := range storeBenchSizes {
		s := benchStore(n)
		want := (n + 127) / 128
		b.Run(fmt.Sprintf("indexed/docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sels, _, err := s.Select(plan)
				if err != nil || len(sels) != want {
					b.Fatalf("got %d docs (err %v), want %d", len(sels), err, want)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sels, err := s.SelectScan(plan)
				if err != nil || len(sels) != want {
					b.Fatalf("got %d docs (err %v), want %d", len(sels), err, want)
				}
			}
		})
	}
}

// BenchmarkStoreSemanticShortCircuit measures the serving cost of a
// provably-empty query: the compile-time pass already stamped the plan
// unsatisfiable, so Find returns before planning — no posting list, no
// shard fan-out, no per-document eval, at any collection size.
func BenchmarkStoreSemanticShortCircuit(b *testing.B) {
	e := engine.New(engine.Options{PlanCacheSize: 64, SemanticBudget: 50000})
	plan, err := e.Compile(engine.LangMongoFind, `{"$and":[{"k0":{"$gt":5}},{"k0":{"$lt":3}}]}`)
	if err != nil {
		b.Fatal(err)
	}
	s := store.New(store.Options{Shards: 16, Engine: e})
	r := rand.New(rand.NewSource(7))
	opts := gen.DocOptions{Fanout: 2, Depth: 2, Keys: 10, ArrayBias: 40, ValueRange: 30}
	for i := 0; i < 1000; i++ {
		s.PutTree(fmt.Sprintf("doc%04d", i), jsontree.FromValue(gen.Document(r, opts)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _, err := s.Find(plan)
		if err != nil || len(ids) != 0 {
			b.Fatalf("got %d docs (err %v), want 0", len(ids), err)
		}
	}
}

// corpusShapedDoc returns document i of a corpusDoc-shaped collection
// over the given number of tenants: a meta block (region r0..r7,
// sequence number, tenant t<i mod tenants>) over a random payload of
// fanout 3 and depth 3, keys k0..k11, 30% arrays, leaves below 100.
func corpusShapedDoc(r *rand.Rand, i, tenants int) *jsontree.Tree {
	payload := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 30, ValueRange: 100}
	return jsontree.FromValue(jsonval.MustObj(
		jsonval.Member{Key: "meta", Value: jsonval.MustObj(
			jsonval.Member{Key: "region", Value: jsonval.Str(fmt.Sprintf("r%d", i%8))},
			jsonval.Member{Key: "seq", Value: jsonval.Num(uint64(i))},
			jsonval.Member{Key: "tenant", Value: jsonval.Str(fmt.Sprintf("t%d", i%tenants))},
		)},
		jsonval.Member{Key: "payload", Value: gen.Document(r, payload)},
	))
}

// scanEvalStore builds the 2000-document in-memory store of
// corpusShapedDoc documents over 20 tenants BenchmarkStoreScanEval
// queries.
func scanEvalStore() *store.Store {
	r := rand.New(rand.NewSource(1))
	s := store.New(store.Options{Shards: 16})
	for i := 0; i < 2000; i++ {
		s.PutTree(fmt.Sprintf("doc%04d", i), corpusShapedDoc(r, i, 20))
	}
	return s
}

// BenchmarkStoreScanEval is the in-process ledger of the scan-eval
// workload: one sub-benchmark per query shape of its pool, none of
// which yields an index fact, so every query evaluates all 2000
// documents through the QIR executor. It reports µs and allocations
// per query.
func BenchmarkStoreScanEval(b *testing.B) {
	s := scanEvalStore()
	ctx := context.Background()
	find := func(p *engine.Plan) (int, error) {
		ids, _, err := s.FindTraced(ctx, p, nil)
		return len(ids), err
	}
	sel := func(p *engine.Plan) (int, error) {
		sels, _, err := s.SelectTraced(ctx, p, nil)
		n := 0
		for _, x := range sels {
			n += len(x.Nodes)
		}
		return n, err
	}
	for _, c := range []struct {
		name string
		lang engine.Language
		src  string
		run  func(*engine.Plan) (int, error)
	}{
		{"mongo-not-ne", engine.LangMongoFind, `{"meta.seq":{"$not":{"$gte":1000}},"meta.region":{"$ne":"r3"}}`, find},
		{"jsonpath-descend/select", engine.LangJSONPath, `$..k10.k1`, sel},
		{"jsonpath-descend/find", engine.LangJSONPath, `$..k10.k1`, find},
		{"jnl-star", engine.LangJNL, `[(/~".*")* <eq(eps, "s30")>]`, find},
		{"jsl-recursive", engine.LangJSL, `def g = eq("s30") || some(~".*", g) || some([0:], g) ; g`, find},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := engine.MustCompile(c.lang, c.src)
			want, err := c.run(p)
			if err != nil || want == 0 {
				b.Fatalf("%s: %d results, err %v", c.src, want, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, err := c.run(p); got != want || err != nil {
					b.Fatalf("%s: %d results (err %v), want %d", c.src, got, err, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/query")
		})
	}
}

// BenchmarkStoreColdPass is the in-process ledger of the query-cold
// workload on the tier that workload reads: a 10 000-document store of
// corpusShapedDoc documents over 100 tenants, built through store.Open
// (SnapshotEvery 200) and snapshotted, so a reopened store serves every
// document from its segment tier. Each iteration reopens the store on
// a fresh engine with the daemon's semantic pass (untimed) and runs
// one pass: a find per tenant, in mongo, JNL or JSL by turn — every
// compile a plan-cache miss, every candidate a first touch of its
// segment document. It reports µs and allocations per query.
func BenchmarkStoreColdPass(b *testing.B) {
	const docs, tenants = 10000, 100
	opts := store.Options{DataDir: b.TempDir(), Fsync: store.FsyncOff, SnapshotEvery: 200}
	s, err := store.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < docs; i++ {
		if err := s.PutTree(fmt.Sprintf("doc%05d", i), corpusShapedDoc(r, i, tenants)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := engine.New(engine.Options{SemanticBudget: 50000})
		opts.Engine = e
		s, err := store.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		for x := 0; x < tenants; x++ {
			p, err := e.Compile(benchTenantQuery(x))
			if err != nil {
				b.Fatal(err)
			}
			if ids, _, err := s.Find(p); err != nil || len(ids) != docs/tenants {
				b.Fatalf("%s: %d documents (err %v), want %d", p.Source(), len(ids), err, docs/tenants)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	queries := float64(b.N * tenants)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/queries, "µs/query")
	b.ReportMetric(float64(mallocs)/queries, "allocs/query")
}

// ingestCorpus builds the shared 2000-document NDJSON batch the
// ingest benchmarks feed.
func ingestCorpus() string {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, `{"sensor":"s%d","value":%d,"nested":{"a":[%d,"x"]}}`+"\n", i%32, i, i%100)
	}
	return sb.String()
}

// BenchmarkStoreIngestNDJSON measures bulk ingest throughput including
// incremental index maintenance — the in-memory baseline the durable
// variants below are read against.
func BenchmarkStoreIngestNDJSON(b *testing.B) {
	input := ingestCorpus()
	b.ReportAllocs()
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		s := store.New(store.Options{Shards: 16})
		res, err := s.BulkNDJSON(strings.NewReader(input))
		if err != nil || len(res.IDs) != 2000 {
			b.Fatalf("ingested %d (err %v)", len(res.IDs), err)
		}
	}
}

// BenchmarkStoreIngestDurable quantifies the write-ahead-log overhead
// of bulk ingest under each fsync policy. Bulk batches WAL appends and
// forces them durable once per touched shard at the end of the
// stream, so fsync=always pays ~16 fsyncs per 2000-document batch,
// not 2000; fsync=interval and fsync=off defer to the background
// flusher and should sit near the in-memory baseline plus the
// sequential write cost.
func BenchmarkStoreIngestDurable(b *testing.B) {
	input := ingestCorpus()
	for _, policy := range []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval, store.FsyncOff} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				s, err := store.Open(store.Options{Shards: 16, DataDir: dir, Fsync: policy, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.BulkNDJSON(strings.NewReader(input))
				if err != nil || len(res.IDs) != 2000 {
					b.Fatalf("ingested %d (err %v)", len(res.IDs), err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorePutDurable is the single-writer worst case: one
// document per acknowledgement, so fsync=always pays one fsync per
// put (nothing to group), while interval and off ride the buffer.
func BenchmarkStorePutDurable(b *testing.B) {
	for _, policy := range []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval, store.FsyncOff} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			s, err := store.Open(store.Options{Shards: 16, DataDir: b.TempDir(), Fsync: policy, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("doc%07d", i)
				if err := s.Put(id, `{"sensor":"s1","value":42,"nested":{"a":[7,"x"]}}`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreRecover lives in internal/store/recover_bench_test.go,
// where it compares segment-open against wal-replay at 10k and 100k
// documents.
