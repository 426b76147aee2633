package jsl

import (
	"fmt"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/relang"
)

// Options are ablation switches for the benchmarks, each forcing the
// naive algorithm a bound assumes. The zero value is the fast default.
type Options struct {
	// NaiveUnique forces the quadratic pairwise uniqueItems check that
	// the O(|J|²·|φ|) bound of Proposition 6 assumes, instead of the
	// hash-bucketed check.
	NaiveUnique bool
}

// Evaluator evaluates (recursive) JSL expressions over one JSON tree.
type Evaluator struct {
	tree *jsontree.Tree
	opts Options

	regexMemo  map[*relang.Regex]map[string]bool
	uniqueMemo map[jsontree.NodeID]bool
}

// NewEvaluator returns an Evaluator for the tree.
func NewEvaluator(t *jsontree.Tree) *Evaluator { return NewEvaluatorOptions(t, Options{}) }

// NewEvaluatorOptions returns an Evaluator with explicit options.
func NewEvaluatorOptions(t *jsontree.Tree, opts Options) *Evaluator {
	return &Evaluator{
		tree:       t,
		opts:       opts,
		regexMemo:  make(map[*relang.Regex]map[string]bool),
		uniqueMemo: make(map[jsontree.NodeID]bool),
	}
}

// Eval computes the set of nodes of the tree satisfying the plain
// (non-recursive) formula f, per the |= relation of §5.2. It runs in
// O(|J|·|φ|) plus the cost of Unique tests (Proposition 6): quadratic
// per array with NaiveUnique, near-linear with hash bucketing.
// f must not contain Ref nodes; use EvalRecursive for those.
func (ev *Evaluator) Eval(f Formula) ([]bool, error) {
	var containsRef bool
	walkRefs(f, func(string) { containsRef = true })
	if containsRef {
		return nil, fmt.Errorf("jsl: formula contains references; use EvalRecursive")
	}
	return ev.evalRecursive(NonRecursive(f))
}

// Holds reports whether the root satisfies f (the J |= ψ convention of
// the paper: schema formulas are evaluated at the root).
func (ev *Evaluator) Holds(f Formula) (bool, error) {
	sets, err := ev.Eval(f)
	if err != nil {
		return false, err
	}
	return sets[ev.tree.Root()], nil
}

// EvalRecursive computes the set of nodes satisfying the recursive
// expression Δ — node n is in the result iff (json(n), n) |= Δ, per
// Lemma 3. The algorithm is the bottom-up stratified evaluation of
// Proposition 9: nodes are processed in increasing height order; at each
// node every subformula of every definition (in precedence-graph
// topological order) and of the base expression is evaluated, with modal
// subformulas consulting the already-complete tables of the strictly
// lower heights. Total work is O(|J|·|Δ|) plus Unique costs.
func (ev *Evaluator) EvalRecursive(r *Recursive) ([]bool, error) {
	if err := r.WellFormed(); err != nil {
		return nil, err
	}
	return ev.evalRecursive(r)
}

// EvalRecursivePrechecked is EvalRecursive without the per-call
// WellFormed re-check, for callers that validated the expression once
// when it was built — the engine's plan layer compiles an expression
// once and then evaluates it per document, where re-deriving the
// precedence graph on every document is pure overhead. Behaviour on an
// expression that was never checked is undefined (evaluation may panic
// on an unguarded cycle).
func (ev *Evaluator) EvalRecursivePrechecked(r *Recursive) ([]bool, error) {
	return ev.evalRecursive(r)
}

// HoldsRecursive reports J |= Δ (satisfaction at the root).
func (ev *Evaluator) HoldsRecursive(r *Recursive) (bool, error) {
	sets, err := ev.EvalRecursive(r)
	if err != nil {
		return false, err
	}
	return sets[ev.tree.Root()], nil
}

// Holds is a convenience: does the root of t satisfy f?
func Holds(t *jsontree.Tree, f Formula) (bool, error) {
	return NewEvaluator(t).Holds(f)
}

// HoldsRecursive is a convenience: does t satisfy Δ?
func HoldsRecursive(t *jsontree.Tree, r *Recursive) (bool, error) {
	return NewEvaluator(t).HoldsRecursive(r)
}

// subformula table construction: every distinct subformula occurrence
// of every definition body and the base gets an id; ids are assigned in
// post-order so children precede parents within one body.
type subTable struct {
	formulas []Formula
	id       map[Formula]int // identity per occurrence via interface key
	defRoot  []int           // root subformula id of each definition
	baseRoot int
	refDef   map[string]int // definition index by name
}

func buildSubTable(r *Recursive) *subTable {
	st := &subTable{id: map[Formula]int{}, refDef: map[string]int{}}
	for i, d := range r.Defs {
		st.refDef[d.Name] = i
	}
	var add func(f Formula) int
	add = func(f Formula) int {
		// Each occurrence is added once; shared sub-values (possible via
		// constructors) are fine to share since truth is positional only
		// in the node, not the occurrence.
		if id, ok := st.id[f]; ok {
			return id
		}
		switch t := f.(type) {
		case Not:
			add(t.Inner)
		case And:
			add(t.Left)
			add(t.Right)
		case Or:
			add(t.Left)
			add(t.Right)
		case DiamondKey:
			add(t.Inner)
		case BoxKey:
			add(t.Inner)
		case DiamondIdx:
			add(t.Inner)
		case BoxIdx:
			add(t.Inner)
		}
		id := len(st.formulas)
		st.formulas = append(st.formulas, f)
		st.id[f] = id
		return id
	}
	st.defRoot = make([]int, len(r.Defs))
	for i, d := range r.Defs {
		st.defRoot[i] = add(d.Body)
	}
	st.baseRoot = add(r.Base)
	return st
}

func (ev *Evaluator) evalRecursive(r *Recursive) ([]bool, error) {
	st := buildSubTable(r)
	t := ev.tree
	n := t.Len()

	// truth[f][node]: whether subformula f holds at node.
	truth := make([][]bool, len(st.formulas))
	for i := range truth {
		truth[i] = make([]bool, n)
	}

	// Bucket nodes by height, ascending.
	maxH := 0
	for i := 0; i < n; i++ {
		if h := t.Height(jsontree.NodeID(i)); h > maxH {
			maxH = h
		}
	}
	byHeight := make([][]jsontree.NodeID, maxH+1)
	for i := 0; i < n; i++ {
		id := jsontree.NodeID(i)
		byHeight[t.Height(id)] = append(byHeight[t.Height(id)], id)
	}

	// Subformula evaluation order per height level: a topological sort
	// over the *within-node* read dependencies. At one node, a
	// connective reads its operands' columns at the same node and a Ref
	// reads its definition root's column at the same node; modal
	// operators read only the children's tables, which the ascending
	// height sweep has already completed. Ordering whole bodies by the
	// definition precedence graph is not enough: a body evaluated early
	// may cache, under a modality, a connective over a Ref to a later
	// definition, and that stale column is what the guarding modality
	// reads from the parent height. Well-formedness (guarded cycles
	// only) makes this dependency graph acyclic.
	evalOrder := st.topoOrder()

	for h := 0; h <= maxH; h++ {
		for _, node := range byHeight[h] {
			for _, fid := range evalOrder {
				truth[fid][node] = ev.evalAt(st, truth, fid, node)
			}
		}
	}

	return truth[st.resolve(st.baseRoot)], nil
}

// topoOrder returns all subformula ids sorted so that every id comes
// after the same-node columns its evaluation reads: connectives after
// their (resolved) operands, Refs after their definition roots. Modal
// operators contribute no same-node edges. The sort is a DFS; a cycle
// would require an unguarded reference cycle, which WellFormed rejects
// before evaluation starts.
func (st *subTable) topoOrder() []int {
	deps := func(fid int) []int {
		switch f := st.formulas[fid].(type) {
		case Not:
			return []int{st.resolve(st.id[f.Inner])}
		case And:
			return []int{st.resolve(st.id[f.Left]), st.resolve(st.id[f.Right])}
		case Or:
			return []int{st.resolve(st.id[f.Left]), st.resolve(st.id[f.Right])}
		case Ref:
			return []int{st.resolve(fid)}
		}
		return nil
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]uint8, len(st.formulas))
	order := make([]int, 0, len(st.formulas))
	var visit func(fid int)
	visit = func(fid int) {
		switch state[fid] {
		case done:
			return
		case visiting:
			panic("jsl: unguarded reference cycle survived WellFormed")
		}
		state[fid] = visiting
		for _, d := range deps(fid) {
			visit(d)
		}
		state[fid] = done
		order = append(order, fid)
	}
	for fid := range st.formulas {
		visit(fid)
	}
	return order
}

// resolve maps a subformula id to the id whose truth column actually
// carries its value: Ref occurrences alias the root subformula of their
// definition. Reads must go through resolve because a guarded Ref's own
// column may be written before its definition at the same node; the
// definition's root column is always written in dependency order.
func (st *subTable) resolve(fid int) int {
	for {
		ref, ok := st.formulas[fid].(Ref)
		if !ok {
			return fid
		}
		fid = st.defRoot[st.refDef[ref.Name]]
	}
}

// evalAt evaluates one subformula at one node, assuming all subformulas
// are already evaluated at every strictly lower node (children) and all
// earlier subformulas of the evaluation order at this node.
func (ev *Evaluator) evalAt(st *subTable, truth [][]bool, fid int, node jsontree.NodeID) bool {
	t := ev.tree
	switch f := st.formulas[fid].(type) {
	case True:
		return true
	case Not:
		return !truth[st.resolve(st.id[f.Inner])][node]
	case And:
		return truth[st.resolve(st.id[f.Left])][node] && truth[st.resolve(st.id[f.Right])][node]
	case Or:
		return truth[st.resolve(st.id[f.Left])][node] || truth[st.resolve(st.id[f.Right])][node]
	case IsArr:
		return t.Kind(node) == jsontree.ArrayNode
	case IsObj:
		return t.Kind(node) == jsontree.ObjectNode
	case IsStr:
		return t.Kind(node) == jsontree.StringNode
	case IsInt:
		return t.Kind(node) == jsontree.NumberNode
	case Pattern:
		return t.Kind(node) == jsontree.StringNode && ev.matchMemo(f.Re, t.StringVal(node))
	case Min:
		return t.Kind(node) == jsontree.NumberNode && t.NumberVal(node) >= f.I
	case Max:
		return t.Kind(node) == jsontree.NumberNode && t.NumberVal(node) <= f.I
	case MultOf:
		if t.Kind(node) != jsontree.NumberNode {
			return false
		}
		if f.I == 0 {
			return t.NumberVal(node) == 0
		}
		return t.NumberVal(node)%f.I == 0
	case MinCh:
		return t.NumChildren(node) >= f.K
	case MaxCh:
		return t.NumChildren(node) <= f.K
	case Unique:
		if t.Kind(node) != jsontree.ArrayNode {
			return false
		}
		return ev.unique(node)
	case EqDoc:
		return t.SubtreeHash(node) == f.Doc.Hash() && t.EqualsValue(node, f.Doc)
	case DiamondKey:
		if t.Kind(node) != jsontree.ObjectNode {
			return false
		}
		inner := truth[st.resolve(st.id[f.Inner])]
		if f.IsWord {
			c := t.ChildByKey(node, f.Word)
			return c != jsontree.InvalidNode && inner[c]
		}
		for _, c := range t.Children(node) {
			if ev.matchMemo(f.Re, t.EdgeKey(c)) && inner[c] {
				return true
			}
		}
		return false
	case BoxKey:
		if t.Kind(node) != jsontree.ObjectNode {
			return true // vacuous: no O-edges
		}
		inner := truth[st.resolve(st.id[f.Inner])]
		if f.IsWord {
			c := t.ChildByKey(node, f.Word)
			return c == jsontree.InvalidNode || inner[c]
		}
		for _, c := range t.Children(node) {
			if ev.matchMemo(f.Re, t.EdgeKey(c)) && !inner[c] {
				return false
			}
		}
		return true
	case DiamondIdx:
		if t.Kind(node) != jsontree.ArrayNode {
			return false
		}
		inner := truth[st.resolve(st.id[f.Inner])]
		for _, c := range t.ChildrenInRange(node, f.Lo, f.Hi) {
			if inner[c] {
				return true
			}
		}
		return false
	case BoxIdx:
		if t.Kind(node) != jsontree.ArrayNode {
			return true
		}
		inner := truth[st.resolve(st.id[f.Inner])]
		for _, c := range t.ChildrenInRange(node, f.Lo, f.Hi) {
			if !inner[c] {
				return false
			}
		}
		return true
	case Ref:
		di, ok := st.refDef[f.Name]
		if !ok {
			panic("jsl: unresolved reference " + f.Name)
		}
		return truth[st.defRoot[di]][node]
	}
	panic(fmt.Sprintf("jsl: unknown formula %T", st.formulas[fid]))
}

func (ev *Evaluator) matchMemo(re *relang.Regex, s string) bool {
	memo, ok := ev.regexMemo[re]
	if !ok {
		memo = make(map[string]bool)
		ev.regexMemo[re] = memo
	}
	m, seen := memo[s]
	if !seen {
		m = re.Match(s)
		memo[s] = m
	}
	return m
}

func (ev *Evaluator) unique(node jsontree.NodeID) bool {
	u, seen := ev.uniqueMemo[node]
	if seen {
		return u
	}
	if ev.opts.NaiveUnique {
		u = ev.tree.UniqueChildrenNaive(node)
	} else {
		u = ev.tree.UniqueChildren(node)
	}
	ev.uniqueMemo[node] = u
	return u
}
