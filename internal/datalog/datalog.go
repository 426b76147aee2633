// Package datalog implements the non-recursive monadic datalog engine
// that the proof of Proposition 1 compiles JNL formulas into.
//
// A JSON tree is viewed as a relational structure over the JSON
// signature: one binary relation per object key ("key" edges), one per
// array position ("index" edges), unary kind predicates Obj/Arr/Str/Int,
// unary value predicates, and the binary subtree-equality relation Eq.
// A program is a set of rules with monadic intensional heads whose
// bodies are tree-shaped conjunctive queries over this signature,
// with stratified negation restricted to monadic intensional literals
// (exactly the "JSON programs" of the appendix).
//
// Because object keys and array positions are functional — the first
// two attributes of the O and A relations form a key — grounding a
// tree-shaped body at a node admits at most one valuation (Lemma 1).
// The engine exploits this: a rule is checked at a node by a single
// deterministic walk, Eq atoms are compared online against the walk's
// witnesses instead of materialising the quadratic Eq relation, and the
// whole evaluation runs in O(|J|·|P|) time for a program P.
package datalog

import (
	"fmt"
	"strings"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

// Pred identifies a monadic intensional predicate of a program.
type Pred int

// Var identifies a body variable of a rule. Variable 0 is always the
// head variable (the root of the tree-shaped body).
type Var int

// KindTest is a node-kind constraint usable as a body literal.
type KindTest uint8

// Kind tests on body variables.
const (
	AnyKind KindTest = iota
	ObjKind
	ArrKind
	StrKind
	IntKind
)

func (k KindTest) String() string {
	switch k {
	case ObjKind:
		return "obj"
	case ArrKind:
		return "arr"
	case StrKind:
		return "str"
	case IntKind:
		return "int"
	default:
		return "any"
	}
}

// Edge is a navigational body atom: To is the child of From reached via
// an object key (IsKey) or an array position. The edges of a body must
// form a tree rooted at variable 0.
type Edge struct {
	From, To Var
	IsKey    bool
	Key      string
	Index    int
}

// Test is a unary body literal on a variable: either a kind test or an
// intensional literal P(x) / ¬P(x).
type Test struct {
	Var  Var
	Kind KindTest // used when !HasPred
	// Intensional literal.
	HasPred bool
	Pred    Pred
	Negated bool
}

// EqAtom is a subtree-equality body atom: either Eq(A,B) between two
// body variables, or equality of A's subtree with the constant document
// Const. These are the atoms the engine compares "online" as the
// grounding walk produces witnesses.
type EqAtom struct {
	A, B  Var
	Const *jsonval.Value // non-nil: compare json(A) with Const instead of json(B)
}

// Body is a tree-shaped conjunctive query.
type Body struct {
	NumVars int
	Edges   []Edge
	Tests   []Test
	Eqs     []EqAtom
}

// Rule derives Head(x₀) from the body grounded with x₀ bound to a node.
type Rule struct {
	Head Pred
	Body Body
}

// Program is a non-recursive monadic datalog program with stratified
// negation over the JSON signature. Goal is the predicate whose
// extension is the program's answer.
type Program struct {
	names []string
	rules []Rule
	goal  Pred
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{}
}

// AddPred registers a new intensional predicate with a debug name.
func (p *Program) AddPred(name string) Pred {
	p.names = append(p.names, name)
	return Pred(len(p.names) - 1)
}

// AddRule appends a rule. The body is validated lazily by Evaluate.
func (p *Program) AddRule(r Rule) { p.rules = append(p.rules, r) }

// SetGoal marks the goal predicate.
func (p *Program) SetGoal(g Pred) { p.goal = g }

// Goal returns the goal predicate.
func (p *Program) Goal() Pred { return p.goal }

// Size returns the total number of body atoms plus heads, the |P|
// factor in the O(|J|·|P|) evaluation bound.
func (p *Program) Size() int {
	n := 0
	for _, r := range p.rules {
		n += 1 + len(r.Body.Edges) + len(r.Body.Tests) + len(r.Body.Eqs)
	}
	return n
}

// Validate checks the structural invariants of JSON programs: every
// body is tree-shaped and connected via its navigational atoms, rooted
// at variable 0, and the predicate dependency graph is acyclic (which
// both enforces non-recursiveness and makes every negation stratified).
func (p *Program) Validate() error {
	for i, r := range p.rules {
		if err := r.Body.validate(); err != nil {
			return fmt.Errorf("rule %d (head %s): %w", i, p.names[r.Head], err)
		}
		if int(r.Head) >= len(p.names) {
			return fmt.Errorf("rule %d: unknown head predicate %d", i, r.Head)
		}
		for _, t := range r.Body.Tests {
			if t.HasPred && int(t.Pred) >= len(p.names) {
				return fmt.Errorf("rule %d: unknown body predicate %d", i, t.Pred)
			}
		}
	}
	if _, err := p.topoOrder(); err != nil {
		return err
	}
	return nil
}

func (b *Body) validate() error {
	if b.NumVars < 1 {
		return fmt.Errorf("body has no variables")
	}
	seen := make([]bool, b.NumVars)
	seen[0] = true
	// Edges must be listed so that From is reachable before To (a
	// preorder listing of the body tree), and each variable has exactly
	// one incoming edge.
	for _, e := range b.Edges {
		if e.From < 0 || int(e.From) >= b.NumVars || e.To < 1 || int(e.To) >= b.NumVars {
			return fmt.Errorf("edge %v out of range", e)
		}
		if !seen[e.From] {
			return fmt.Errorf("edge into %d listed before its source %d is reachable", e.To, e.From)
		}
		if seen[e.To] {
			return fmt.Errorf("variable %d has two incoming edges", e.To)
		}
		seen[e.To] = true
	}
	for v := 0; v < b.NumVars; v++ {
		if !seen[v] {
			return fmt.Errorf("variable %d not connected to the body tree", v)
		}
	}
	for _, t := range b.Tests {
		if t.Var < 0 || int(t.Var) >= b.NumVars {
			return fmt.Errorf("test on out-of-range variable %d", t.Var)
		}
	}
	for _, e := range b.Eqs {
		if e.A < 0 || int(e.A) >= b.NumVars {
			return fmt.Errorf("eq atom on out-of-range variable %d", e.A)
		}
		if e.Const == nil && (e.B < 0 || int(e.B) >= b.NumVars) {
			return fmt.Errorf("eq atom on out-of-range variable %d", e.B)
		}
	}
	return nil
}

// topoOrder returns the predicates in dependency order (body predicates
// before heads), or an error if the dependency graph has a cycle.
func (p *Program) topoOrder() ([]Pred, error) {
	n := len(p.names)
	adj := make([][]Pred, n) // adj[q] lists heads depending on q
	indeg := make([]int, n)
	type depKey struct{ from, to Pred }
	dedup := make(map[depKey]bool)
	for _, r := range p.rules {
		for _, t := range r.Body.Tests {
			if !t.HasPred || t.Pred == r.Head {
				if t.HasPred && t.Pred == r.Head {
					return nil, fmt.Errorf("predicate %s depends on itself", p.names[r.Head])
				}
				continue
			}
			k := depKey{t.Pred, r.Head}
			if dedup[k] {
				continue
			}
			dedup[k] = true
			adj[t.Pred] = append(adj[t.Pred], r.Head)
			indeg[r.Head]++
		}
	}
	order := make([]Pred, 0, n)
	queue := make([]Pred, 0, n)
	for q := 0; q < n; q++ {
		if indeg[q] == 0 {
			queue = append(queue, Pred(q))
		}
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		order = append(order, q)
		for _, h := range adj[q] {
			indeg[h]--
			if indeg[h] == 0 {
				queue = append(queue, h)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("program is recursive: predicate dependency graph has a cycle")
	}
	return order, nil
}

// Result holds the computed extensions of every predicate of a program
// over one tree.
type Result struct {
	prog *Program
	ext  [][]bool // ext[pred][node]
}

// Holds reports whether pred holds at node n.
func (r *Result) Holds(pred Pred, n jsontree.NodeID) bool {
	return r.ext[pred][n]
}

// GoalNodes returns the nodes in the extension of the goal predicate,
// in document order.
func (r *Result) GoalNodes() []jsontree.NodeID {
	var out []jsontree.NodeID
	for n, ok := range r.ext[r.prog.goal] {
		if ok {
			out = append(out, jsontree.NodeID(n))
		}
	}
	return out
}

// Evaluate computes the extension of every predicate of p over t by
// grounding rules bottom-up in predicate dependency order. Subtree
// equality atoms are decided online during each grounding walk, using
// the tree's structural-hash equality classes, so the total running
// time is O(|J|·|P|).
func Evaluate(p *Program, t *jsontree.Tree) (*Result, error) {
	order, err := p.topoOrder()
	if err != nil {
		return nil, err
	}
	for i, r := range p.rules {
		if err := r.Body.validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
	}
	res := &Result{prog: p, ext: make([][]bool, len(p.names))}
	for q := range res.ext {
		res.ext[q] = make([]bool, t.Len())
	}
	rulesFor := make([][]Rule, len(p.names))
	for _, r := range p.rules {
		rulesFor[r.Head] = append(rulesFor[r.Head], r)
	}
	witness := make([]jsontree.NodeID, 0, 8)
	for _, q := range order {
		for _, r := range rulesFor[q] {
			for n := 0; n < t.Len(); n++ {
				if res.ext[q][n] {
					continue // an earlier rule already derived it
				}
				if groundAt(t, &r.Body, jsontree.NodeID(n), res, &witness) {
					res.ext[q][n] = true
				}
			}
		}
	}
	return res, nil
}

// groundAt attempts the unique grounding of body at node n (Lemma 1)
// and checks all literals against it.
func groundAt(t *jsontree.Tree, b *Body, n jsontree.NodeID, res *Result, scratch *[]jsontree.NodeID) bool {
	w := (*scratch)[:0]
	for len(w) < b.NumVars {
		w = append(w, jsontree.InvalidNode)
	}
	*scratch = w
	w[0] = n
	for _, e := range b.Edges {
		src := w[e.From]
		var dst jsontree.NodeID
		if e.IsKey {
			dst = t.ChildByKey(src, e.Key)
		} else {
			dst = t.ChildAt(src, e.Index)
		}
		if dst == jsontree.InvalidNode {
			return false
		}
		w[e.To] = dst
	}
	for _, ts := range b.Tests {
		node := w[ts.Var]
		if ts.HasPred {
			if res.ext[ts.Pred][node] == ts.Negated {
				return false
			}
			continue
		}
		if !kindMatches(t.Kind(node), ts.Kind) {
			return false
		}
	}
	for _, e := range b.Eqs {
		if e.Const != nil {
			if !subtreeEqualsValue(t, w[e.A], e.Const) {
				return false
			}
			continue
		}
		if !t.SubtreeEqual(w[e.A], w[e.B]) {
			return false
		}
	}
	return true
}

func kindMatches(k jsontree.Kind, want KindTest) bool {
	switch want {
	case AnyKind:
		return true
	case ObjKind:
		return k == jsontree.ObjectNode
	case ArrKind:
		return k == jsontree.ArrayNode
	case StrKind:
		return k == jsontree.StringNode
	case IntKind:
		return k == jsontree.NumberNode
	default:
		return false
	}
}

// subtreeEqualsValue compares json(n) with a constant document without
// materialising the subtree.
func subtreeEqualsValue(t *jsontree.Tree, n jsontree.NodeID, v *jsonval.Value) bool {
	if t.SubtreeHash(n) != v.Hash() || t.SubtreeSize(n) != v.Size() {
		return false
	}
	return t.EqualsValue(n, v)
}

// String renders the program in a readable datalog-like syntax.
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.rules {
		fmt.Fprintf(&sb, "%s(x0) :- ", p.names[r.Head])
		first := true
		sep := func() {
			if !first {
				sb.WriteString(", ")
			}
			first = false
		}
		for _, e := range r.Body.Edges {
			sep()
			if e.IsKey {
				fmt.Fprintf(&sb, "key[%q](x%d,x%d)", e.Key, e.From, e.To)
			} else {
				fmt.Fprintf(&sb, "idx[%d](x%d,x%d)", e.Index, e.From, e.To)
			}
		}
		for _, ts := range r.Body.Tests {
			sep()
			if ts.HasPred {
				if ts.Negated {
					sb.WriteString("not ")
				}
				fmt.Fprintf(&sb, "%s(x%d)", p.names[ts.Pred], ts.Var)
			} else {
				fmt.Fprintf(&sb, "%s(x%d)", ts.Kind, ts.Var)
			}
		}
		for _, e := range r.Body.Eqs {
			sep()
			if e.Const != nil {
				fmt.Fprintf(&sb, "eq(x%d, %s)", e.A, e.Const)
			} else {
				fmt.Fprintf(&sb, "eq(x%d,x%d)", e.A, e.B)
			}
		}
		if first {
			sb.WriteString("true")
		}
		sb.WriteString(".\n")
	}
	fmt.Fprintf(&sb, "goal: %s\n", p.names[p.goal])
	return sb.String()
}
