package qir

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/relang"
)

// This file is the QIR executor: Compile turns a logical Query into an
// immutable Program of composable operators. It has two halves.
// Predicates evaluate node-at-a-time in continuation-passing style:
// boolean connectives short-circuit, navigation steps stop at the first
// witness (Exists) or counter-example (ForAll), and the two sources of
// recursion — Closure paths and named definitions — evaluate through
// per-node memo tables so each (operator, node) pair is decided at most
// once per tree. Selection paths and the two sides of EQ(π₁, π₂)
// evaluate set-at-a-time: each enumerator maps a duplicate-free node
// set to a duplicate-free node set in pooled buffers, so a selection
// allocates nothing and runs in O(|J|·|path|) — Proposition 3's bound —
// whenever no closure body itself contains a closure.
//
// Soundness of the closure memo: every moving path step descends
// (parent → child), so a successful Exists-through-closure derivation
// can always be taken over pairwise-distinct nodes within the start
// node's subtree (loops through a node add nothing and can be spliced
// out). The in-progress marker therefore only ever cuts re-entries
// that no minimal derivation needs, and caching the final verdict is
// exact. ForAll-through-closure is the dual (greatest fixpoint):
// re-entry yields true.

// The executor converts qir.Kind to jsontree.Kind by value; these
// constant subtractions fail to compile (unsigned underflow) if the
// two enums ever drift out of alignment.
const (
	_ = uint8(KindObject) - uint8(jsontree.ObjectNode)
	_ = uint8(jsontree.ObjectNode) - uint8(KindObject)
	_ = uint8(KindArray) - uint8(jsontree.ArrayNode)
	_ = uint8(jsontree.ArrayNode) - uint8(KindArray)
	_ = uint8(KindString) - uint8(jsontree.StringNode)
	_ = uint8(jsontree.StringNode) - uint8(KindString)
	_ = uint8(KindNumber) - uint8(jsontree.NumberNode)
	_ = uint8(jsontree.NumberNode) - uint8(KindNumber)
)

// Program is a compiled, immutable physical plan. It is safe for
// concurrent use; all mutable evaluation state lives in the per-call
// state, drawn from a pool on the program so steady-state evaluation
// allocates nothing (see state).
type Program struct {
	query *Query
	pred  predOp
	sel   enumOp // non-nil iff query.Sel != nil
	memos int    // number of memo tables a state must hold

	// pool recycles evaluation states across Match/Eval calls. States
	// are program-specific (the memo table count is fixed at compile
	// time), so the pool lives on the Program rather than the package.
	pool sync.Pool
}

// Compile builds the physical plan for a query. It verifies that every
// Ref resolves to a definition and that unguarded references are
// acyclic (the §5.3 well-formedness condition), since the executor's
// memoized recursion relies on both.
func Compile(q *Query) (*Program, error) {
	c := &compiler{q: q, defs: make(map[string]*defOp, len(q.Defs))}
	if err := c.checkWellFormed(); err != nil {
		return nil, err
	}
	// Create all definition operators first so references resolve, then
	// compile the bodies (which may reference any definition).
	for i := range q.Defs {
		d := &q.Defs[i]
		if _, dup := c.defs[d.Name]; dup {
			return nil, fmt.Errorf("qir: duplicate definition %s", d.Name)
		}
		c.defs[d.Name] = &defOp{name: d.Name, memoID: c.newMemo()}
	}
	for i := range q.Defs {
		d := &q.Defs[i]
		op, err := c.compileNode(d.Body)
		if err != nil {
			return nil, err
		}
		c.defs[d.Name].body = op
	}
	pred, err := c.compileNode(q.Pred)
	if err != nil {
		return nil, err
	}
	p := &Program{query: q, pred: pred}
	if q.Sel != nil {
		p.sel = c.compileEnum(q.Sel)
	}
	// Record the memo count only after every operator — including
	// closure operators reached through selection-path filter
	// conditions, which also draw memo IDs — has been compiled.
	p.memos = c.memos
	return p, nil
}

// MustCompile is Compile but panics on error, for statically known
// queries in tests.
func MustCompile(q *Query) *Program {
	p, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return p
}

// Query returns the logical query the program was compiled from.
func (p *Program) Query() *Query { return p.query }

// Match reports whether the tree's root satisfies the query's match
// predicate (the engine's Validate semantics): MatchCtx with no
// context, which cannot fail.
func (p *Program) Match(t *jsontree.Tree) bool {
	ok, _ := p.MatchCtx(nil, t)
	return ok
}

// MatchCtx is the one body of the match semantics. The executor polls
// ctx at its recursion checkpoints (closure steps, definition entries,
// closure-enumeration visits — every cancelCheckEvery of them) and
// returns ctx.Err() once it has fired; a nil ctx is never polled.
// Steady-state evaluation performs no allocations either way: all
// evaluation state comes from the program's pool.
func (p *Program) MatchCtx(ctx context.Context, t *jsontree.Tree) (ok bool, err error) {
	st := p.acquire(t)
	st.ctx = ctx
	defer p.finish(st, &err)
	return p.pred.eval(st, t.Root()), nil
}

// Eval computes the query's node-selection semantics: the nodes
// reachable via the selection path when one is set, otherwise all
// nodes satisfying the match predicate. Results are in ascending node
// order, matching the reference evaluators. The returned slice is
// freshly allocated; EvalAppend is the allocation-free variant for
// callers that reuse a buffer.
func (p *Program) Eval(t *jsontree.Tree) []jsontree.NodeID {
	return p.EvalAppend(t, nil)
}

// EvalAppend is Eval appending into out (which may be nil), returning
// the extended slice — the strconv.AppendInt convention. A caller
// reusing its buffer across calls (out = prog.EvalAppend(t, out[:0]))
// evaluates without allocating once the buffer has grown to the
// working-set size. It is EvalAppendCtx with no context.
func (p *Program) EvalAppend(t *jsontree.Tree, out []jsontree.NodeID) []jsontree.NodeID {
	out, _ = p.EvalAppendCtx(nil, t, out)
	return out
}

// EvalAppendCtx is the one body of the node-selection semantics, with
// MatchCtx's cancellation contract: it returns nil, ctx.Err() once the
// context fires.
func (p *Program) EvalAppendCtx(ctx context.Context, t *jsontree.Tree, out []jsontree.NodeID) (res []jsontree.NodeID, err error) {
	st := p.acquire(t)
	st.ctx = ctx
	defer p.finish(st, &err)
	n := t.Len()
	if p.sel != nil {
		// Enumerate the selected set from the root, mark it into a
		// pooled visit set, then emit in ascending node order, matching
		// the reference evaluators.
		from := append(st.acquireNodes(), t.Root())
		sel := p.sel.apply(st, from, st.acquireNodes())
		seen := st.acquireVisited()
		for _, m := range sel {
			seen.mark(m)
		}
		for i := 0; i < n; i++ {
			if seen.marks[i] {
				out = append(out, jsontree.NodeID(i))
			}
		}
		st.releaseVisited(seen)
		st.releaseNodes(sel)
		st.releaseNodes(from)
		return out, nil
	}
	for i := 0; i < n; i++ {
		st.step()
		if p.pred.eval(st, jsontree.NodeID(i)) {
			out = append(out, jsontree.NodeID(i))
		}
	}
	return out, nil
}

// finish is the deferred tail of both entry points: it returns the
// state to the pool and converts a cancellation panic into *err
// (leaving the caller's other results at their zero values). Any other
// panic propagates.
func (p *Program) finish(st *state, err *error) {
	p.release(st)
	if r := recover(); r != nil {
		c, isCancel := r.(cancelErr)
		if !isCancel {
			panic(r)
		}
		*err = c.err
	}
}

// Describe renders the physical operator tree, the "physical plan"
// half of Plan.Explain.
func (p *Program) Describe() string {
	var sb strings.Builder
	if p.sel != nil {
		fmt.Fprintf(&sb, "enumerate %s\n", PathString(p.query.Sel))
	} else {
		sb.WriteString("scan-nodes\n")
	}
	sb.WriteString("filter\n")
	p.pred.describe(&sb, 1)
	return sb.String()
}

// ---- compiler ----

type compiler struct {
	q     *Query
	defs  map[string]*defOp
	memos int
}

func (c *compiler) newMemo() int {
	c.memos++
	return c.memos - 1
}

// checkWellFormed verifies references resolve and the unguarded
// precedence graph is acyclic, mirroring jsl.Recursive.WellFormed.
func (c *compiler) checkWellFormed() error {
	defined := make(map[string]bool, len(c.q.Defs))
	for _, d := range c.q.Defs {
		defined[d.Name] = true
	}
	var err error
	var checkRefs func(n Node)
	var checkPathRefs func(p Path)
	checkRefs = func(n Node) {
		switch t := n.(type) {
		case Ref:
			if !defined[t.Name] && err == nil {
				err = fmt.Errorf("qir: reference to undefined symbol %s", t.Name)
			}
		case Not:
			checkRefs(t.Inner)
		case And:
			checkRefs(t.Left)
			checkRefs(t.Right)
		case Or:
			checkRefs(t.Left)
			checkRefs(t.Right)
		case Exists:
			checkRefs(t.Inner)
			checkPathRefs(t.Path)
		case ForAll:
			checkRefs(t.Inner)
			checkPathRefs(t.Path)
		case EqPaths:
			checkPathRefs(t.Left)
			checkPathRefs(t.Right)
		}
	}
	checkPathRefs = func(p Path) {
		switch t := p.(type) {
		case Filter:
			checkRefs(t.Cond)
		case Seq:
			for _, part := range t.Parts {
				checkPathRefs(part)
			}
		case Union:
			for _, alt := range t.Alts {
				checkPathRefs(alt)
			}
		case Closure:
			checkPathRefs(t.Inner)
		}
	}
	for _, d := range c.q.Defs {
		checkRefs(d.Body)
	}
	checkRefs(c.q.Pred)
	if c.q.Sel != nil {
		checkPathRefs(c.q.Sel)
	}
	if err != nil {
		return err
	}
	// Unguarded-reference cycle detection. A modal operator guards its
	// inner predicate only when its path is moving — guaranteed to
	// descend at least one tree edge — because the executor's memoized
	// recursion re-enters at the same node through non-moving paths
	// (ε, filters, closures taken zero times). Refs inside path filter
	// conditions are treated as unguarded outright: a filter runs at
	// whatever node the pipeline has reached, which conservatively may
	// be the starting node.
	unguarded := func(body Node) []string {
		seen := map[string]bool{}
		var walk func(n Node)
		var walkPathFilters func(p Path)
		walk = func(n Node) {
			switch t := n.(type) {
			case Ref:
				seen[t.Name] = true
			case Not:
				walk(t.Inner)
			case And:
				walk(t.Left)
				walk(t.Right)
			case Or:
				walk(t.Left)
				walk(t.Right)
			case Exists:
				if !movingPath(t.Path) {
					walk(t.Inner)
				}
				walkPathFilters(t.Path)
			case ForAll:
				if !movingPath(t.Path) {
					walk(t.Inner)
				}
				walkPathFilters(t.Path)
			case EqPaths:
				walkPathFilters(t.Left)
				walkPathFilters(t.Right)
			}
		}
		walkPathFilters = func(p Path) {
			switch t := p.(type) {
			case Filter:
				walk(t.Cond)
			case Seq:
				for _, part := range t.Parts {
					walkPathFilters(part)
				}
			case Union:
				for _, alt := range t.Alts {
					walkPathFilters(alt)
				}
			case Closure:
				walkPathFilters(t.Inner)
			}
		}
		walk(body)
		out := make([]string, 0, len(seen))
		for _, d := range c.q.Defs {
			if seen[d.Name] {
				out = append(out, d.Name)
			}
		}
		return out
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[string]int{}
	var visit func(name string, body Node) error
	visit = func(name string, body Node) error {
		switch state[name] {
		case inStack:
			return fmt.Errorf("qir: unguarded reference cycle through %s", name)
		case done:
			return nil
		}
		state[name] = inStack
		for _, m := range unguarded(body) {
			b, _ := c.q.Def(m)
			if err := visit(m, b); err != nil {
				return err
			}
		}
		state[name] = done
		return nil
	}
	for _, d := range c.q.Defs {
		if err := visit(d.Name, d.Body); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) compileNode(n Node) (predOp, error) {
	switch t := n.(type) {
	case True:
		return trueOp{}, nil
	case Not:
		inner, err := c.compileNode(t.Inner)
		if err != nil {
			return nil, err
		}
		return &notOp{inner: inner}, nil
	case And:
		l, err := c.compileNode(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.compileNode(t.Right)
		if err != nil {
			return nil, err
		}
		return &andOp{left: l, right: r}, nil
	case Or:
		l, err := c.compileNode(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.compileNode(t.Right)
		if err != nil {
			return nil, err
		}
		return &orOp{left: l, right: r}, nil
	case KindIs:
		return kindOp{kind: jsontree.Kind(t.Kind)}, nil
	case ValEq:
		return &valEqOp{doc: t.Doc, hash: t.Doc.Hash(), size: t.Doc.Size()}, nil
	case StrMatch:
		return &strMatchOp{re: t.Re}, nil
	case NumGE:
		return numGEOp{n: t.N}, nil
	case NumLE:
		return numLEOp{n: t.N}, nil
	case NumMultOf:
		return numMultOfOp{n: t.N}, nil
	case ChMin:
		return chMinOp{k: t.K}, nil
	case ChMax:
		return chMaxOp{k: t.K}, nil
	case Unique:
		return uniqueOp{}, nil
	case Exists:
		inner, err := c.compileNode(t.Inner)
		if err != nil {
			return nil, err
		}
		return c.compileModal(t.Path, inner, false)
	case ForAll:
		inner, err := c.compileNode(t.Inner)
		if err != nil {
			return nil, err
		}
		return c.compileModal(t.Path, inner, true)
	case EqPaths:
		return &eqPathsOp{
			left: c.compileEnum(t.Left), right: c.compileEnum(t.Right),
			leftLabel: PathString(t.Left), rightLabel: PathString(t.Right),
		}, nil
	case Ref:
		d, ok := c.defs[t.Name]
		if !ok {
			return nil, fmt.Errorf("qir: reference to undefined symbol %s", t.Name)
		}
		return &refOp{def: d}, nil
	}
	return nil, fmt.Errorf("qir: unknown node %T", n)
}

// compileModal builds the operator for "some path-successor satisfies
// k" (forAll false) or its dual "every path-successor satisfies k"
// (forAll true, vacuously true without successors), in continuation
// style: each step operator holds the rest of the pipeline, so
// evaluation walks the tree node-at-a-time and stops at the first
// witness or counter-example.
func (c *compiler) compileModal(p Path, k predOp, forAll bool) (predOp, error) {
	switch t := p.(type) {
	case Here:
		return k, nil
	case Key:
		return &keyStepOp{word: t.Word, next: k, forAll: forAll}, nil
	case KeyRe:
		return &keyReStepOp{re: t.Re, any: t.Re.IsAnyStar(), next: k, forAll: forAll}, nil
	case At:
		return &atStepOp{index: t.Index, next: k, forAll: forAll}, nil
	case Slice:
		return &sliceStepOp{lo: t.Lo, hi: t.Hi, next: k, forAll: forAll}, nil
	case Filter:
		cond, err := c.compileNode(t.Cond)
		if err != nil {
			return nil, err
		}
		if forAll {
			// ∀⟨φ⟩.k ≡ φ → k.
			return &implOp{cond: cond, next: k}, nil
		}
		return &filterOp{cond: cond, next: k}, nil
	case Seq:
		out := k
		for i := len(t.Parts) - 1; i >= 0; i-- {
			var err error
			out, err = c.compileModal(t.Parts[i], out, forAll)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	case Union:
		alts := make([]predOp, len(t.Alts))
		for i, a := range t.Alts {
			op, err := c.compileModal(a, k, forAll)
			if err != nil {
				return nil, err
			}
			alts[i] = op
		}
		if forAll {
			return &allOfOp{alts: alts}, nil
		}
		return &anyOfOp{alts: alts}, nil
	case Closure:
		op := &closureOp{memoID: c.newMemo(), tail: k, forAll: forAll, label: PathString(p)}
		step, err := c.compileModal(t.Inner, op, forAll)
		if err != nil {
			return nil, err
		}
		op.step = step
		return op, nil
	}
	return nil, fmt.Errorf("qir: unknown path %T", p)
}

// movingPath reports whether every successful traversal of the path
// descends at least one tree edge — the property that makes a modal
// operator a recursion guard.
func movingPath(p Path) bool {
	switch t := p.(type) {
	case Key, KeyRe, At, Slice:
		return true
	case Seq:
		for _, part := range t.Parts {
			if movingPath(part) {
				return true
			}
		}
		return false
	case Union:
		if len(t.Alts) == 0 {
			return false
		}
		for _, alt := range t.Alts {
			if !movingPath(alt) {
				return false
			}
		}
		return true
	}
	// Here, Filter, Closure (zero iterations): may succeed in place.
	return false
}

// compileEnum builds the set-at-a-time successor enumerator for a
// path, used by path selection (JSONPath) and EqPaths.
func (c *compiler) compileEnum(p Path) enumOp {
	switch t := p.(type) {
	case Here:
		return hereEnum{}
	case Key:
		return keyEnum{word: t.Word}
	case KeyRe:
		return keyReEnum{re: t.Re, any: t.Re.IsAnyStar()}
	case At:
		return atEnum{index: t.Index}
	case Slice:
		return sliceEnum{lo: t.Lo, hi: t.Hi}
	case Filter:
		cond, err := c.compileNode(t.Cond)
		if err != nil {
			// Node compilation only fails on unresolved references, which
			// checkWellFormed has already rejected.
			panic(err)
		}
		return filterEnum{cond: cond}
	case Seq:
		switch len(t.Parts) {
		case 0:
			return hereEnum{}
		case 1:
			return c.compileEnum(t.Parts[0])
		}
		parts := make([]enumOp, len(t.Parts))
		for i, part := range t.Parts {
			parts[i] = c.compileEnum(part)
		}
		return seqEnum{parts: parts}
	case Union:
		alts := make([]enumOp, len(t.Alts))
		for i, a := range t.Alts {
			alts[i] = c.compileEnum(a)
		}
		return unionEnum{alts: alts}
	case Closure:
		// (α₁|…|αₙ)*, the shape of JSONPath's `..`: the closure's
		// visited set already drops what two alternatives share, so it
		// steps the alternatives itself instead of through a union.
		body := []Path{t.Inner}
		if u, ok := t.Inner.(Union); ok {
			body = u.Alts
		}
		steps := make([]enumOp, len(body))
		for i, b := range body {
			steps[i] = c.compileEnum(b)
		}
		return closureEnum{body: steps}
	}
	panic(fmt.Sprintf("qir: unknown path %T", p))
}

// ---- per-evaluation state ----

// memo verdict codes. Unknown must be the zero value.
const (
	memoUnknown int8 = iota
	memoInProgress
	memoFalse
	memoTrue
)

// regexMemoCap bounds the cross-tree regex memo: once the total entry
// count passes the cap, the whole memo is dropped on the next acquire.
// The bound keeps a pooled state from pinning every string of every
// tree it ever evaluated.
const regexMemoCap = 1 << 12

// state is the mutable evaluation state of one Match/Eval call. States
// are pooled on the Program and reused: memo slices keep their backing
// arrays between evaluations (re-zeroed per tree), the regex memo is a
// genuine cross-tree cache (a regex verdict depends only on the regex
// and the string, not the tree), and visited scratch sets recycle
// through a freelist. After warm-up an evaluation allocates nothing.
type state struct {
	t          *jsontree.Tree
	memos      [][]int8
	uniqueMemo []int8 // memo codes per node for UniqueChildren (no in-progress state)
	regexMemo  map[*relang.Regex]map[string]bool
	regexLen   int // total entries across the inner maps, against regexMemoCap

	// scratch is the freelist of visited sets for closure and union
	// enumeration (and Eval's selection marks); nodeBufs is the freelist
	// of node buffers the enumerators pass sets in. Freelists rather
	// than single buffers because enumerations nest: a closure inside a
	// filter inside another closure needs its own marks and sets.
	scratch  []*visitSet
	nodeBufs [][]jsontree.NodeID

	// ctx arms cooperative cancellation; nil (Match/EvalAppend, which
	// have no context) makes step a single predictable branch. steps
	// counts checkpoints so ctx is polled once per cancelCheckEvery.
	ctx   context.Context
	steps int
}

// cancelCheckEvery is how many executor checkpoints (closure steps,
// definition entries, enumeration visits, scanned nodes) pass between
// context polls. A power of two so the modulus is a mask; small
// enough that a cancelled query unwinds in well under a millisecond
// of residual work.
const cancelCheckEvery = 1024

// cancelErr carries ctx.Err() out of the operator recursion as a
// panic; finish recovers it. A panic rather than threaded error
// returns keeps the operator signatures — and their zero-allocation
// steady state — untouched.
type cancelErr struct{ err error }

// step is the cancellation checkpoint, inlined into the recursion
// sites that bound how long evaluation can run between polls.
func (st *state) step() {
	if st.ctx == nil {
		return
	}
	st.steps++
	if st.steps&(cancelCheckEvery-1) == 0 {
		if err := st.ctx.Err(); err != nil {
			panic(cancelErr{err})
		}
	}
}

// acquire returns a ready state for evaluating t: pooled if available,
// fresh otherwise, with every per-tree memo cleared.
func (p *Program) acquire(t *jsontree.Tree) *state {
	st, _ := p.pool.Get().(*state)
	if st == nil {
		st = &state{memos: make([][]int8, p.memos)}
	}
	st.t = t
	n := t.Len()
	for i, m := range st.memos {
		if cap(m) >= n {
			m = m[:n]
			clear(m)
			st.memos[i] = m
		} else {
			st.memos[i] = nil // re-sized lazily on first use
		}
	}
	if cap(st.uniqueMemo) >= n {
		st.uniqueMemo = st.uniqueMemo[:n]
		clear(st.uniqueMemo)
	} else {
		st.uniqueMemo = nil
	}
	if st.regexLen > regexMemoCap {
		st.regexMemo, st.regexLen = nil, 0
	}
	return st
}

// scratchCap bounds the scratch a pooled state keeps between calls:
// node buffers and visit sets grown past it by one huge tree are
// dropped on release rather than pinned by the pool.
const scratchCap = 1 << 16

// release disarms the state and returns it to the program's pool. The
// tree and context references are dropped so a pooled state never
// keeps either alive, and so is any scratch above scratchCap.
func (p *Program) release(st *state) {
	st.t = nil
	st.ctx, st.steps = nil, 0
	st.nodeBufs = slices.DeleteFunc(st.nodeBufs, func(b []jsontree.NodeID) bool {
		return cap(b) > scratchCap
	})
	st.scratch = slices.DeleteFunc(st.scratch, func(v *visitSet) bool {
		return cap(v.marks) > scratchCap
	})
	p.pool.Put(st)
}

func (st *state) memo(id int) []int8 {
	m := st.memos[id]
	if m == nil {
		m = make([]int8, st.t.Len())
		st.memos[id] = m
	}
	return m
}

func (st *state) matchRe(re *relang.Regex, s string) bool {
	if st.regexMemo == nil {
		st.regexMemo = make(map[*relang.Regex]map[string]bool)
	}
	memo, ok := st.regexMemo[re]
	if !ok {
		memo = make(map[string]bool)
		st.regexMemo[re] = memo
	}
	m, seen := memo[s]
	if !seen {
		m = re.Match(s)
		memo[s] = m
		st.regexLen++
	}
	return m
}

func (st *state) unique(n jsontree.NodeID) bool {
	if st.uniqueMemo == nil {
		st.uniqueMemo = make([]int8, st.t.Len())
	}
	switch st.uniqueMemo[n] {
	case memoTrue:
		return true
	case memoFalse:
		return false
	}
	u := st.uniqueCheck(n)
	if u {
		st.uniqueMemo[n] = memoTrue
	} else {
		st.uniqueMemo[n] = memoFalse
	}
	return u
}

// uniqueCheck is jsontree.UniqueChildren re-done over pooled scratch:
// children are sorted by subtree hash in a pooled node buffer and
// compared structurally only within equal-hash runs, so hash
// collisions cannot produce a false "unique" and the steady state
// allocates nothing (the tree method buckets through a fresh map).
func (st *state) uniqueCheck(n jsontree.NodeID) bool {
	t := st.t
	kids := t.Children(n)
	if len(kids) < 2 {
		return true
	}
	buf := append(st.acquireNodes(), kids...)
	defer st.releaseNodes(buf)
	slices.SortFunc(buf, func(a, b jsontree.NodeID) int {
		ha, hb := t.SubtreeHash(a), t.SubtreeHash(b)
		switch {
		case ha < hb:
			return -1
		case ha > hb:
			return 1
		}
		return 0
	})
	for i := 0; i < len(buf); {
		j := i + 1
		for j < len(buf) && t.SubtreeHash(buf[j]) == t.SubtreeHash(buf[i]) {
			j++
		}
		for a := i; a < j; a++ {
			for b := a + 1; b < j; b++ {
				if t.SubtreeEqual(buf[a], buf[b]) {
					return false
				}
			}
		}
		i = j
	}
	return true
}

// visitSet is a reusable node mark set: marks is sized to the tree,
// touched records which marks were set so release can undo them in
// O(set size) instead of O(tree size).
type visitSet struct {
	marks   []bool
	touched []jsontree.NodeID
}

// mark marks n, recording it for cleanup; it reports nothing — use
// marks[n] to test membership first where the answer matters.
func (v *visitSet) mark(n jsontree.NodeID) {
	if !v.marks[n] {
		v.marks[n] = true
		v.touched = append(v.touched, n)
	}
}

// acquireVisited returns a clear visit set sized to the current tree,
// reusing a freelisted one when available.
func (st *state) acquireVisited() *visitSet {
	n := st.t.Len()
	if k := len(st.scratch); k > 0 {
		v := st.scratch[k-1]
		st.scratch = st.scratch[:k-1]
		if cap(v.marks) >= n {
			v.marks = v.marks[:n]
			return v
		}
		v.marks = make([]bool, n)
		return v
	}
	return &visitSet{marks: make([]bool, n)}
}

// releaseVisited unmarks everything the set touched and freelists it.
func (st *state) releaseVisited(v *visitSet) {
	for _, n := range v.touched {
		v.marks[n] = false
	}
	v.touched = v.touched[:0]
	st.scratch = append(st.scratch, v)
}

// acquireNodes returns an empty node buffer, reusing a freelisted one
// when available (nil otherwise: append allocates it on first use).
func (st *state) acquireNodes() []jsontree.NodeID {
	k := len(st.nodeBufs)
	if k == 0 {
		return nil
	}
	b := st.nodeBufs[k-1]
	st.nodeBufs = st.nodeBufs[:k-1]
	return b[:0]
}

// releaseNodes freelists a node buffer for the next acquireNodes.
func (st *state) releaseNodes(b []jsontree.NodeID) {
	if cap(b) > 0 {
		st.nodeBufs = append(st.nodeBufs, b[:0])
	}
}

// ---- predicate operators ----

type predOp interface {
	eval(st *state, n jsontree.NodeID) bool
	describe(sb *strings.Builder, depth int)
}

func ind(sb *strings.Builder, depth int, s string) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(s)
	sb.WriteByte('\n')
}

type trueOp struct{}

func (trueOp) eval(*state, jsontree.NodeID) bool       { return true }
func (trueOp) describe(sb *strings.Builder, depth int) { ind(sb, depth, "true") }

type notOp struct{ inner predOp }

func (o *notOp) eval(st *state, n jsontree.NodeID) bool { return !o.inner.eval(st, n) }
func (o *notOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "not")
	o.inner.describe(sb, depth+1)
}

type andOp struct{ left, right predOp }

func (o *andOp) eval(st *state, n jsontree.NodeID) bool {
	return o.left.eval(st, n) && o.right.eval(st, n)
}
func (o *andOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "and")
	o.left.describe(sb, depth+1)
	o.right.describe(sb, depth+1)
}

type orOp struct{ left, right predOp }

func (o *orOp) eval(st *state, n jsontree.NodeID) bool {
	return o.left.eval(st, n) || o.right.eval(st, n)
}
func (o *orOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "or")
	o.left.describe(sb, depth+1)
	o.right.describe(sb, depth+1)
}

type anyOfOp struct{ alts []predOp }

func (o *anyOfOp) eval(st *state, n jsontree.NodeID) bool {
	for _, a := range o.alts {
		if a.eval(st, n) {
			return true
		}
	}
	return false
}
func (o *anyOfOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "any-of")
	for _, a := range o.alts {
		a.describe(sb, depth+1)
	}
}

type allOfOp struct{ alts []predOp }

func (o *allOfOp) eval(st *state, n jsontree.NodeID) bool {
	for _, a := range o.alts {
		if !a.eval(st, n) {
			return false
		}
	}
	return true
}
func (o *allOfOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "all-of")
	for _, a := range o.alts {
		a.describe(sb, depth+1)
	}
}

type kindOp struct{ kind jsontree.Kind }

func (o kindOp) eval(st *state, n jsontree.NodeID) bool { return st.t.Kind(n) == o.kind }
func (o kindOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "kind="+o.kind.String())
}

type valEqOp struct {
	doc  *jsonval.Value
	hash uint64
	size int
}

func (o *valEqOp) eval(st *state, n jsontree.NodeID) bool {
	return st.t.SubtreeHash(n) == o.hash && st.t.SubtreeSize(n) == o.size &&
		st.t.EqualsValue(n, o.doc)
}
func (o *valEqOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "eq "+o.doc.String())
}

type strMatchOp struct{ re *relang.Regex }

func (o *strMatchOp) eval(st *state, n jsontree.NodeID) bool {
	return st.t.Kind(n) == jsontree.StringNode && st.matchRe(o.re, st.t.StringVal(n))
}
func (o *strMatchOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("match %q", o.re.String()))
}

type numGEOp struct{ n uint64 }

func (o numGEOp) eval(st *state, n jsontree.NodeID) bool {
	return st.t.Kind(n) == jsontree.NumberNode && st.t.NumberVal(n) >= o.n
}
func (o numGEOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("num>=%d", o.n))
}

type numLEOp struct{ n uint64 }

func (o numLEOp) eval(st *state, n jsontree.NodeID) bool {
	return st.t.Kind(n) == jsontree.NumberNode && st.t.NumberVal(n) <= o.n
}
func (o numLEOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("num<=%d", o.n))
}

type numMultOfOp struct{ n uint64 }

func (o numMultOfOp) eval(st *state, n jsontree.NodeID) bool {
	if st.t.Kind(n) != jsontree.NumberNode {
		return false
	}
	if o.n == 0 {
		return st.t.NumberVal(n) == 0
	}
	return st.t.NumberVal(n)%o.n == 0
}
func (o numMultOfOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("num%%%d=0", o.n))
}

type chMinOp struct{ k int }

func (o chMinOp) eval(st *state, n jsontree.NodeID) bool { return st.t.NumChildren(n) >= o.k }
func (o chMinOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("children>=%d", o.k))
}

type chMaxOp struct{ k int }

func (o chMaxOp) eval(st *state, n jsontree.NodeID) bool { return st.t.NumChildren(n) <= o.k }
func (o chMaxOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("children<=%d", o.k))
}

type uniqueOp struct{}

func (uniqueOp) eval(st *state, n jsontree.NodeID) bool {
	return st.t.Kind(n) == jsontree.ArrayNode && st.unique(n)
}
func (uniqueOp) describe(sb *strings.Builder, depth int) { ind(sb, depth, "unique") }

// ---- navigation step operators ----

// keyStepOp navigates one keyed edge. Objects have at most one child
// per key, so the existential and universal variants coincide up to
// the verdict on absence.
type keyStepOp struct {
	word   string
	next   predOp
	forAll bool
}

func (o *keyStepOp) eval(st *state, n jsontree.NodeID) bool {
	c := st.t.ChildByKey(n, o.word)
	if c == jsontree.InvalidNode {
		return o.forAll
	}
	return o.next.eval(st, c)
}
func (o *keyStepOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("%s /%s", stepName(o.forAll), o.word))
	o.next.describe(sb, depth+1)
}

// keyReStepOp steps along the keys a regex accepts; any marks a regex
// that is Σ* by syntax (relang's IsAnyStar: the `.*` that JSONPath
// `..`/`*`, JNL `(/~".*")*` and JSL `some(~".*", g)` lower to), whose
// step visits every member without consulting the regex memo. The test
// is syntactic because the regex comes from query text: deciding
// universality in general means determinizing, which can take
// exponential time and memory before evaluation even starts.
type keyReStepOp struct {
	re     *relang.Regex
	any    bool
	next   predOp
	forAll bool
}

func (o *keyReStepOp) eval(st *state, n jsontree.NodeID) bool {
	t := st.t
	if t.Kind(n) != jsontree.ObjectNode {
		return o.forAll
	}
	for _, c := range t.Children(n) {
		if !o.any && !st.matchRe(o.re, t.EdgeKey(c)) {
			continue
		}
		if o.next.eval(st, c) != o.forAll {
			return !o.forAll
		}
	}
	return o.forAll
}
func (o *keyReStepOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("%s /~%q", stepName(o.forAll), o.re.String()))
	o.next.describe(sb, depth+1)
}

type atStepOp struct {
	index  int
	next   predOp
	forAll bool
}

func (o *atStepOp) eval(st *state, n jsontree.NodeID) bool {
	c := st.t.ChildAt(n, o.index)
	if c == jsontree.InvalidNode {
		return o.forAll
	}
	return o.next.eval(st, c)
}
func (o *atStepOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("%s /%d", stepName(o.forAll), o.index))
	o.next.describe(sb, depth+1)
}

type sliceStepOp struct {
	lo, hi int
	next   predOp
	forAll bool
}

func (o *sliceStepOp) eval(st *state, n jsontree.NodeID) bool {
	t := st.t
	if t.Kind(n) != jsontree.ArrayNode {
		return o.forAll
	}
	for _, c := range t.ChildrenInRange(n, o.lo, o.hi) {
		if o.next.eval(st, c) != o.forAll {
			return !o.forAll
		}
	}
	return o.forAll
}
func (o *sliceStepOp) describe(sb *strings.Builder, depth int) {
	hi := "∞"
	if o.hi != Inf {
		hi = fmt.Sprintf("%d", o.hi)
	}
	ind(sb, depth, fmt.Sprintf("%s /[%d:%s]", stepName(o.forAll), o.lo, hi))
	o.next.describe(sb, depth+1)
}

func stepName(forAll bool) string {
	if forAll {
		return "all"
	}
	return "step"
}

// filterOp gates the pipeline on a same-node condition (Exists).
type filterOp struct {
	cond predOp
	next predOp
}

func (o *filterOp) eval(st *state, n jsontree.NodeID) bool {
	return o.cond.eval(st, n) && o.next.eval(st, n)
}
func (o *filterOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "filter")
	o.cond.describe(sb, depth+1)
	o.next.describe(sb, depth+1)
}

// implOp is filterOp's ForAll dual: condition fails → vacuously true.
type implOp struct {
	cond predOp
	next predOp
}

func (o *implOp) eval(st *state, n jsontree.NodeID) bool {
	return !o.cond.eval(st, n) || o.next.eval(st, n)
}
func (o *implOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, "implies")
	o.cond.describe(sb, depth+1)
	o.next.describe(sb, depth+1)
}

// closureOp evaluates Kleene-star navigation with a per-node memo
// table: Exists-closure is the least fixpoint tail(n) ∨ ∃step, with
// in-progress re-entry yielding false; ForAll-closure is the greatest
// fixpoint tail(n) ∧ ∀step with re-entry yielding true. See the file
// comment for why the memo is exact.
type closureOp struct {
	memoID int
	label  string
	tail   predOp
	step   predOp // compiled from the closure body with this op as continuation
	forAll bool
}

func (o *closureOp) eval(st *state, n jsontree.NodeID) bool {
	st.step()
	m := st.memo(o.memoID)
	switch m[n] {
	case memoTrue:
		return true
	case memoFalse:
		return false
	case memoInProgress:
		return o.forAll
	}
	m[n] = memoInProgress
	var v bool
	if o.forAll {
		v = o.tail.eval(st, n) && o.step.eval(st, n)
	} else {
		v = o.tail.eval(st, n) || o.step.eval(st, n)
	}
	if v {
		m[n] = memoTrue
	} else {
		m[n] = memoFalse
	}
	return v
}
func (o *closureOp) describe(sb *strings.Builder, depth int) {
	mode := "exists"
	if o.forAll {
		mode = "all"
	}
	ind(sb, depth, fmt.Sprintf("%s %s [memo #%d]", mode, o.label, o.memoID))
	o.tail.describe(sb, depth+1)
}

// defOp is a named definition; Refs route through it so every
// (definition, node) verdict is computed at most once per tree.
type defOp struct {
	name   string
	memoID int
	body   predOp
}

func (o *defOp) eval(st *state, n jsontree.NodeID) bool {
	st.step()
	m := st.memo(o.memoID)
	switch m[n] {
	case memoTrue:
		return true
	case memoFalse:
		return false
	case memoInProgress:
		// Unreachable for queries that passed checkWellFormed: guarded
		// cycles re-enter only at strictly deeper nodes.
		panic("qir: unguarded recursion through " + o.name)
	}
	m[n] = memoInProgress
	v := o.body.eval(st, n)
	if v {
		m[n] = memoTrue
	} else {
		m[n] = memoFalse
	}
	return v
}

type refOp struct{ def *defOp }

func (o *refOp) eval(st *state, n jsontree.NodeID) bool { return o.def.eval(st, n) }
func (o *refOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("ref %s [memo #%d]", o.def.name, o.def.memoID))
}

// eqPathsOp evaluates EQ(π₁, π₂) set-at-a-time: the left successor
// set, sorted by subtree hash, forms the buckets (runs of equal hash),
// and each right successor probes its bucket by binary search,
// verifying structurally so hash collisions cannot produce a false
// positive. Both sets and the sort live in pooled node buffers, so the
// operator allocates nothing. The right set is built whole before the
// first probe, so an early right-hand match does not cut the walk
// short; the cost stays linear in the two path regions.
type eqPathsOp struct {
	left, right           enumOp
	leftLabel, rightLabel string
}

func (o *eqPathsOp) eval(st *state, n jsontree.NodeID) bool {
	t := st.t
	from := append(st.acquireNodes(), n)
	left := o.left.apply(st, from, st.acquireNodes())
	right := st.acquireNodes()
	found := false
	if len(left) > 0 {
		right = o.right.apply(st, from, right)
		slices.SortFunc(left, func(a, b jsontree.NodeID) int {
			return cmp.Compare(t.SubtreeHash(a), t.SubtreeHash(b))
		})
	probe:
		for _, m := range right {
			h := t.SubtreeHash(m)
			i, _ := slices.BinarySearchFunc(left, h, func(l jsontree.NodeID, h uint64) int {
				return cmp.Compare(t.SubtreeHash(l), h)
			})
			for ; i < len(left) && t.SubtreeHash(left[i]) == h; i++ {
				if t.SubtreeEqual(left[i], m) {
					found = true
					break probe
				}
			}
		}
	}
	st.releaseNodes(right)
	st.releaseNodes(left)
	st.releaseNodes(from)
	return found
}
func (o *eqPathsOp) describe(sb *strings.Builder, depth int) {
	ind(sb, depth, fmt.Sprintf("eqpaths %s ~ %s", o.leftLabel, o.rightLabel))
}

// ---- successor enumerators ----

// enumOp is a set-at-a-time successor enumerator: apply appends to out
// the successors under the path of every node in in, and returns the
// extended slice. in must be duplicate-free, and so is what apply
// appends: a child has exactly one parent, so the steps map distinct
// nodes to distinct children, and union and closure deduplicate
// through a pooled visit set where their parts may overlap.
// Enumerators never write to in, and take their intermediate sets from
// the state's node-buffer freelist.
type enumOp interface {
	apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID
}

type hereEnum struct{}

func (hereEnum) apply(_ *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	return append(out, in...)
}

type keyEnum struct{ word string }

func (e keyEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	for _, n := range in {
		if c := st.t.ChildByKey(n, e.word); c != jsontree.InvalidNode {
			out = append(out, c)
		}
	}
	return out
}

// keyReEnum steps along the keys a regex accepts; any marks a Σ*
// regex (see keyReStepOp), whose step takes every member without
// consulting the regex memo.
type keyReEnum struct {
	re  *relang.Regex
	any bool
}

func (e keyReEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	t := st.t
	for _, n := range in {
		if t.Kind(n) != jsontree.ObjectNode {
			continue
		}
		if e.any {
			out = append(out, t.Children(n)...)
			continue
		}
		for _, c := range t.Children(n) {
			if st.matchRe(e.re, t.EdgeKey(c)) {
				out = append(out, c)
			}
		}
	}
	return out
}

type atEnum struct{ index int }

func (e atEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	for _, n := range in {
		if c := st.t.ChildAt(n, e.index); c != jsontree.InvalidNode {
			out = append(out, c)
		}
	}
	return out
}

type sliceEnum struct{ lo, hi int }

func (e sliceEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	t := st.t
	for _, n := range in {
		if t.Kind(n) == jsontree.ArrayNode {
			out = append(out, t.ChildrenInRange(n, e.lo, e.hi)...)
		}
	}
	return out
}

type filterEnum struct{ cond predOp }

func (e filterEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	for _, n := range in {
		if e.cond.eval(st, n) {
			out = append(out, n)
		}
	}
	return out
}

// seqEnum feeds each part's output set to the next part, alternating
// between two pooled buffers; the last part appends straight to out.
type seqEnum struct{ parts []enumOp } // at least two parts

func (e seqEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	cur, spare := st.acquireNodes(), st.acquireNodes()
	from := in
	last := len(e.parts) - 1
	for _, part := range e.parts[:last] {
		cur = part.apply(st, from, cur[:0])
		from = cur
		cur, spare = spare, cur
		if len(from) == 0 {
			break
		}
	}
	if len(from) > 0 {
		out = e.parts[last].apply(st, from, out)
	}
	st.releaseNodes(spare)
	st.releaseNodes(cur)
	return out
}

// unionEnum appends every alternative's output set to out, then drops
// the nodes reached along more than one alternative in place, through
// a pooled visit set.
type unionEnum struct{ alts []enumOp }

func (e unionEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	lo := len(out)
	for _, a := range e.alts {
		out = a.apply(st, in, out)
	}
	seen := st.acquireVisited()
	kept := out[:lo]
	for _, m := range out[lo:] {
		if !seen.marks[m] {
			seen.mark(m)
			kept = append(kept, m)
		}
	}
	st.releaseVisited(seen)
	return kept
}

// closureEnum computes reflexive-transitive reachability as a BFS over
// one pooled visited set: each round applies the body to the frontier
// — the nodes first reached in the previous round — and keeps only the
// successors not reached before. Frontiers are disjoint, so the body
// runs once over the reached set in total, and every node is emitted
// once; that is what keeps k closures in sequence at k passes over the
// tree rather than |J|^k. Closure applications nest (a filter in the
// body may enumerate another closure), which is why the visited set
// comes from the state's freelist rather than being a singleton. The
// body is a list of alternatives whose outputs each round concatenates:
// the visited test deduplicates them along with the revisits.
type closureEnum struct{ body []enumOp }

func (e closureEnum) apply(st *state, in, out []jsontree.NodeID) []jsontree.NodeID {
	visited := st.acquireVisited()
	lo := len(out)
	for _, n := range in {
		st.step()
		visited.mark(n)
	}
	out = append(out, in...)
	next := st.acquireNodes()
	for lo < len(out) {
		hi := len(out)
		next = next[:0]
		for _, step := range e.body {
			next = step.apply(st, out[lo:hi], next)
		}
		for _, m := range next {
			if !visited.marks[m] {
				st.step()
				visited.mark(m)
				out = append(out, m)
			}
		}
		lo = hi
	}
	st.releaseNodes(next)
	st.releaseVisited(visited)
	return out
}
