package jnl

import (
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/relang"
)

// Evaluator evaluates JNL formulas over one JSON tree. It caches
// per-tree structures shared across evaluations: subtree-equality
// classes (for the EQ predicates) and per-edge regex match marks (the
// preprocessing step of Proposition 3 that lets regex axes be treated as
// ordinary edge labels). An Evaluator is not safe for concurrent use.
type Evaluator struct {
	tree *jsontree.Tree

	// classes[n] is the subtree-equality class of node n: two nodes have
	// the same class iff json(m) = json(n). Built lazily.
	classes []int32

	// regexMarks[re][n] reports whether the edge label into node n
	// matches re. Built lazily per regex.
	regexMarks map[*relang.Regex][]bool

	// opts control the ablation switches.
	opts Options
}

// Options configure evaluation strategy; the zero value is the default
// (fast) configuration. The switches exist so the benchmarks can ablate
// each fast path against the naive algorithm the paper's bounds assume.
type Options struct {
	// NaivePairs forces EQ(α,β) to use the general per-node product
	// search even when both paths are deterministic.
	NaivePairs bool
	// NaiveEquality disables subtree-equality classes; EQ predicates
	// compare subtrees with full structural comparison on demand.
	NaiveEquality bool
}

// NewEvaluator returns an Evaluator for the tree.
func NewEvaluator(t *jsontree.Tree) *Evaluator {
	return NewEvaluatorOptions(t, Options{})
}

// NewEvaluatorOptions returns an Evaluator with explicit options.
func NewEvaluatorOptions(t *jsontree.Tree, opts Options) *Evaluator {
	return &Evaluator{tree: t, regexMarks: make(map[*relang.Regex][]bool), opts: opts}
}

// Eval computes ⟦u⟧_J, the set of nodes satisfying the unary formula.
//
// For formulas without EQ(α,β) the algorithm runs in O(|J|·|φ|): each
// unary connective is a bitset operation and each [α]/EQ(α,A) premise is
// one backward reachability pass over the product of the tree with a
// Thompson program compiled from α (Propositions 1 and 3). When EQ(α,β)
// occurs with non-deterministic paths, evaluation falls back to a
// per-node product search (the cubic bound of Proposition 3);
// deterministic EQ(α,β) paths keep the linear path-function algorithm of
// Proposition 1.
func (ev *Evaluator) Eval(u Unary) *NodeSet {
	return ev.evalUnary(u)
}

// Holds reports whether node n satisfies u.
func (ev *Evaluator) Holds(u Unary, n jsontree.NodeID) bool {
	return ev.evalUnary(u).Contains(n)
}

// Eval is a convenience that evaluates u over t with a fresh Evaluator.
func Eval(t *jsontree.Tree, u Unary) *NodeSet {
	return NewEvaluator(t).Eval(u)
}

// Holds reports whether node n of t satisfies u.
func Holds(t *jsontree.Tree, u Unary, n jsontree.NodeID) bool {
	return NewEvaluator(t).Holds(u, n)
}

// Select returns the pairs ⟦b⟧_J restricted to source root: the nodes
// reachable from the root via the binary formula b. This is the
// "path query" entry point used by the JSONPath and MongoDB frontends.
func (ev *Evaluator) Select(b Binary, from jsontree.NodeID) []jsontree.NodeID {
	prog := ev.compile(b)
	return ev.forwardReach(prog, from)
}

func (ev *Evaluator) evalUnary(u Unary) *NodeSet {
	n := ev.tree.Len()
	switch t := u.(type) {
	case True:
		return FullNodeSet(n)
	case Not:
		s := ev.evalUnary(t.Inner)
		s.Negate()
		return s
	case And:
		s := ev.evalUnary(t.Left)
		s.IntersectWith(ev.evalUnary(t.Right))
		return s
	case Or:
		s := ev.evalUnary(t.Left)
		s.UnionWith(ev.evalUnary(t.Right))
		return s
	case Exists:
		prog := ev.compile(t.Path)
		return ev.backwardReach(prog, FullNodeSet(n))
	case EQDoc:
		target := NewNodeSet(n)
		h := t.Doc.Hash()
		sz := t.Doc.Size()
		ev.tree.Walk(func(id jsontree.NodeID) {
			if ev.opts.NaiveEquality {
				if ev.tree.SubtreeSize(id) == sz && ev.tree.EqualsValue(id, t.Doc) {
					target.Add(id)
				}
				return
			}
			if ev.tree.SubtreeHash(id) == h && ev.tree.SubtreeSize(id) == sz && ev.tree.EqualsValue(id, t.Doc) {
				target.Add(id)
			}
		})
		prog := ev.compile(t.Path)
		return ev.backwardReach(prog, target)
	case EQPaths:
		return ev.evalEQPaths(t)
	}
	panic("jnl: unknown unary formula")
}

// subtreeClasses lazily computes the subtree-equality classes of all
// nodes: classes[m] == classes[n] iff json(m) = json(n). Hash buckets
// are verified structurally, so hash collisions cannot merge classes.
func (ev *Evaluator) subtreeClasses() []int32 {
	if ev.classes != nil {
		return ev.classes
	}
	t := ev.tree
	classes := make([]int32, t.Len())
	next := int32(0)
	buckets := make(map[uint64][]jsontree.NodeID)
	for i := 0; i < t.Len(); i++ {
		n := jsontree.NodeID(i)
		h := t.SubtreeHash(n)
		assigned := false
		for _, rep := range buckets[h] {
			if t.SubtreeEqual(rep, n) {
				classes[n] = classes[rep]
				assigned = true
				break
			}
		}
		if !assigned {
			classes[n] = next
			next++
			buckets[h] = append(buckets[h], n)
		}
	}
	ev.classes = classes
	return classes
}

// sameSubtree reports json(m) = json(n) under the configured equality
// strategy.
func (ev *Evaluator) sameSubtree(m, n jsontree.NodeID) bool {
	if ev.opts.NaiveEquality {
		return ev.tree.SubtreeEqualNaive(m, n)
	}
	classes := ev.subtreeClasses()
	return classes[m] == classes[n]
}
