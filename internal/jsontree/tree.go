// Package jsontree implements the JSON tree data model of §3 of the
// paper: a structure J = (D, Obj, Arr, Str, Int, A, O, val) over a tree
// domain D ⊆ N*, where
//
//   - D is partitioned into object, array, string and number nodes,
//   - O ⊆ Obj × Σ* × D is the object-child relation, labelled by keys
//     that are unique per node (JSON trees are deterministic),
//   - A ⊆ Arr × N × D is the array-child relation, labelled by positions,
//   - val assigns string and number values to leaf Str/Int nodes.
//
// Trees are stored in a flat preorder arena indexed by NodeID, each
// container's children one range of a shared child table, and every
// key and string value one range of a per-tree byte heap. No node
// holds a pointer, so a cached tree is three arrays the garbage
// collector never scans. Every node carries its subtree's structural
// hash, size and height, so the paper's json(n) = json(n') subtree
// comparisons are cheap. The package validates the five
// well-formedness conditions of §3.1 and converts between trees and
// jsonval values.
//
// A Builder is the one place trees are constructed, reached three
// ways: Parse scans JSON text straight into one (no jsonval.Value in
// between), FromValue walks a value into one, and the engine's
// streaming-tokenizer route feeds one events. All three yield the same
// tree, node for node, for the same document.
package jsontree

import (
	"fmt"
	"strings"

	"jsonlogic/internal/jsonval"
)

// NodeID identifies a node of a Tree. The root is always node 0 of a
// non-empty tree. InvalidNode is the zero-length "no node" sentinel.
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Kind is the type of a node: one of the four parts of the domain
// partition of §3.1.
type Kind uint8

const (
	// ObjectNode is a node in Obj.
	ObjectNode Kind = iota
	// ArrayNode is a node in Arr.
	ArrayNode
	// StringNode is a leaf node in Str carrying a string value.
	StringNode
	// NumberNode is a leaf node in Int carrying a natural number.
	NumberNode
)

// String returns the JSON Schema type name for the kind.
func (k Kind) String() string {
	switch k {
	case ObjectNode:
		return "object"
	case ArrayNode:
		return "array"
	case StringNode:
		return "string"
	case NumberNode:
		return "number"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// node is one arena entry. It holds no pointer (TestNodeIsPointerFree
// pins that and its size): strings live in the tree's heap.
type node struct {
	kind   Kind
	parent NodeID
	pos    int32 // label of the A-edge from parent, and sibling index
	first  int32 // the children are kids[first : first+nkids]
	nkids  int32
	size   int32  // number of nodes in the subtree
	height int32  // height of the subtree
	key    span   // label of the O-edge from parent (object parents)
	num    uint64 // val for NumberNode; for StringNode, val's heap span (packed)
	hash   uint64 // structural hash of the subtree json(n)
}

// span locates a string in a tree's heap: heap[off : off+n].
type span struct{ off, n uint32 }

func (s span) packed() uint64        { return uint64(s.off)<<32 | uint64(s.n) }
func unpackSpan(num uint64) span     { return span{off: uint32(num >> 32), n: uint32(num)} }
func (s span) in(heap string) string { return heap[s.off : s.off+s.n] }

// Tree is an immutable JSON tree. Construct with Parse, FromValue or
// a Builder. Nodes are stored in preorder; each container's children
// are a contiguous range of the shared child table kids, and every
// key and string value a substring of heap.
type Tree struct {
	nodes []node
	kids  []NodeID
	heap  string
}

// key returns the label of the O-edge into nd.
func (t *Tree) key(nd *node) string { return nd.key.in(t.heap) }

// str returns val(nd) of a string node.
func (t *Tree) str(nd *node) string { return unpackSpan(nd.num).in(t.heap) }

// children returns nd's children, capped so callers cannot append
// into a neighbour's range.
func (t *Tree) children(nd *node) []NodeID {
	return t.kids[nd.first : nd.first+nd.nkids : nd.first+nd.nkids]
}

// Root returns the root node of the tree (the node with tree-domain
// address ε).
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of nodes in the tree, |J|.
func (t *Tree) Len() int { return len(t.nodes) }

// Kind returns the kind of node n.
func (t *Tree) Kind(n NodeID) Kind { return t.nodes[n].kind }

// Parent returns the parent of n, or InvalidNode for the root.
func (t *Tree) Parent(n NodeID) NodeID { return t.nodes[n].parent }

// NumChildren returns the number of children of n.
func (t *Tree) NumChildren(n NodeID) int { return int(t.nodes[n].nkids) }

// Children returns the children of n in sibling order (key-sorted for
// objects, positional for arrays). The slice must not be modified.
func (t *Tree) Children(n NodeID) []NodeID { return t.children(&t.nodes[n]) }

// ChildByKey returns the child of object node n reached by the O-edge
// labelled key, or InvalidNode. Because JSON trees are deterministic
// (condition 2 of §3.1: the first two components of O form a key) there
// is at most one such child; lookup is O(log k).
func (t *Tree) ChildByKey(n NodeID, key string) NodeID {
	if t.nodes[n].kind != ObjectNode {
		return InvalidNode
	}
	children := t.Children(n)
	lo, hi := 0, len(children)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.key(&t.nodes[children[mid]]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(children) && t.key(&t.nodes[children[lo]]) == key {
		return children[lo]
	}
	return InvalidNode
}

// ChildAt returns the child of array node n reached by the A-edge
// labelled i (the i-th element, 0-based), or InvalidNode. Negative i
// counts from the end (-1 is the last element), per the paper's remark on
// dual array access.
func (t *Tree) ChildAt(n NodeID, i int) NodeID {
	if t.nodes[n].kind != ArrayNode {
		return InvalidNode
	}
	children := t.Children(n)
	if i < 0 {
		i += len(children)
	}
	if i < 0 || i >= len(children) {
		return InvalidNode
	}
	return children[i]
}

// EdgeKey returns the key labelling the O-edge into n, valid when n's
// parent is an object node.
func (t *Tree) EdgeKey(n NodeID) string { return t.key(&t.nodes[n]) }

// EdgePos returns the position labelling the A-edge into n (also n's
// sibling index under any parent).
func (t *Tree) EdgePos(n NodeID) int { return int(t.nodes[n].pos) }

// StringVal returns val(n) for a string node.
func (t *Tree) StringVal(n NodeID) string {
	if t.nodes[n].kind != StringNode {
		panic("jsontree: StringVal on " + t.nodes[n].kind.String() + " node")
	}
	return t.str(&t.nodes[n])
}

// NumberVal returns val(n) for a number node.
func (t *Tree) NumberVal(n NodeID) uint64 {
	if t.nodes[n].kind != NumberNode {
		panic("jsontree: NumberVal on " + t.nodes[n].kind.String() + " node")
	}
	return t.nodes[n].num
}

// SubtreeSize returns |json(n)|, the number of nodes under n inclusive.
func (t *Tree) SubtreeSize(n NodeID) int { return int(t.nodes[n].size) }

// Height returns the height of the subtree rooted at n.
func (t *Tree) Height(n NodeID) int { return int(t.nodes[n].height) }

// SubtreeHash returns the structural hash of json(n). Nodes with equal
// subtrees have equal hashes.
func (t *Tree) SubtreeHash(n NodeID) uint64 { return t.nodes[n].hash }

// SubtreeEqual reports whether json(m) = json(n): the subtrees rooted at
// m and n represent the same JSON value (objects unordered, arrays
// ordered). It first compares hashes and sizes and then verifies
// structurally, so a true result never relies on hashes alone.
func (t *Tree) SubtreeEqual(m, n NodeID) bool {
	if m == n {
		return true
	}
	a, b := &t.nodes[m], &t.nodes[n]
	if a.hash != b.hash || a.size != b.size || a.kind != b.kind {
		return false
	}
	return t.subtreeEqualRec(m, n)
}

// SubtreeEqualNaive compares json(m) and json(n) without the hash
// short-circuit, for the subtree-equality ablation benchmark.
func (t *Tree) SubtreeEqualNaive(m, n NodeID) bool {
	if m == n {
		return true
	}
	return t.subtreeEqualRec(m, n)
}

func (t *Tree) subtreeEqualRec(m, n NodeID) bool {
	a, b := &t.nodes[m], &t.nodes[n]
	if a.kind != b.kind || a.nkids != b.nkids {
		return false
	}
	ac, bc := t.children(a), t.children(b)
	switch a.kind {
	case NumberNode:
		return a.num == b.num
	case StringNode:
		return t.str(a) == t.str(b)
	case ArrayNode:
		for i := range ac {
			if !t.subtreeEqualRec(ac[i], bc[i]) {
				return false
			}
		}
		return true
	case ObjectNode:
		// Object children are key-sorted, so equality is positional.
		for i := range ac {
			if t.key(&t.nodes[ac[i]]) != t.key(&t.nodes[bc[i]]) {
				return false
			}
			if !t.subtreeEqualRec(ac[i], bc[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Value reconstructs the JSON value json(n) of the subtree rooted at n.
func (t *Tree) Value(n NodeID) *jsonval.Value {
	nd := &t.nodes[n]
	switch nd.kind {
	case NumberNode:
		return jsonval.Num(nd.num)
	case StringNode:
		return jsonval.Str(t.str(nd))
	case ArrayNode:
		elems := make([]*jsonval.Value, nd.nkids)
		for i, c := range t.children(nd) {
			elems[i] = t.Value(c)
		}
		return jsonval.Arr(elems...)
	case ObjectNode:
		members := make([]jsonval.Member, nd.nkids)
		for i, c := range t.children(nd) {
			members[i] = jsonval.Member{Key: t.key(&t.nodes[c]), Value: t.Value(c)}
		}
		return jsonval.MustObj(members...)
	}
	panic("jsontree: unknown node kind")
}

// ChildrenInRange returns the positional children of n with sibling
// index in [lo, hi], clamping lo below zero and treating any hi at or
// beyond the last index (including "infinity" sentinels) as open; an
// empty interval (hi < lo) yields nil. It is the one shared
// implementation of the interval-modality semantics the evaluators
// (jsl, qir) previously each duplicated. The returned slice aliases
// the node's child array and must not be modified.
func (t *Tree) ChildrenInRange(n NodeID, lo, hi int) []NodeID {
	children := t.Children(n)
	if lo < 0 {
		lo = 0
	}
	if lo >= len(children) {
		return nil
	}
	if hi >= len(children)-1 {
		return children[lo:]
	}
	if hi < lo {
		return nil
	}
	return children[lo : hi+1]
}

// EqualsValue reports whether json(n) equals the value v, comparing
// structurally without materializing the subtree. It performs no hash
// or size short-circuit of its own; callers on hot paths precede it
// with SubtreeHash/SubtreeSize checks. It is the one shared
// implementation of the comparison the evaluators (jnl, jsl, qir,
// datalog) previously each duplicated.
func (t *Tree) EqualsValue(n NodeID, v *jsonval.Value) bool {
	switch t.Kind(n) {
	case NumberNode:
		return v.IsNumber() && v.Num() == t.NumberVal(n)
	case StringNode:
		return v.IsString() && v.Str() == t.StringVal(n)
	case ArrayNode:
		if !v.IsArray() || v.Len() != t.NumChildren(n) {
			return false
		}
		for i, c := range t.Children(n) {
			e, _ := v.Elem(i)
			if !t.EqualsValue(c, e) {
				return false
			}
		}
		return true
	case ObjectNode:
		if !v.IsObject() || v.Len() != t.NumChildren(n) {
			return false
		}
		for _, c := range t.Children(n) {
			m, ok := v.Member(t.EdgeKey(c))
			if !ok || !t.EqualsValue(c, m) {
				return false
			}
		}
		return true
	}
	return false
}

// Path returns the tree-domain address of n as the sequence of sibling
// indices from the root, i.e. the element of N* identifying n in D.
func (t *Tree) Path(n NodeID) []int {
	var rev []int
	for n != 0 {
		rev = append(rev, int(t.nodes[n].pos))
		n = t.nodes[n].parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Navigate applies the JSON navigation instruction path, a sequence of
// steps from the root. Each step is either a key (for objects) or an
// index (for arrays). It returns InvalidNode if any step fails.
func (t *Tree) Navigate(n NodeID, steps ...Step) NodeID {
	for _, s := range steps {
		if n == InvalidNode {
			return InvalidNode
		}
		if s.IsKey {
			n = t.ChildByKey(n, s.Key)
		} else {
			n = t.ChildAt(n, s.Index)
		}
	}
	return n
}

// Step is one JSON navigation instruction: J[key] or J[i] (§2).
type Step struct {
	IsKey bool
	Key   string
	Index int
}

// Key returns the navigation step J[key].
func Key(k string) Step { return Step{IsKey: true, Key: k} }

// Index returns the navigation step J[i].
func Index(i int) Step { return Step{Index: i} }

// Walk calls fn for every node of the tree in depth-first preorder.
func (t *Tree) Walk(fn func(NodeID)) {
	for i := range t.nodes {
		fn(NodeID(i))
	}
}

// Nodes returns all node ids in preorder. Node ids are dense in
// [0, Len()), assigned in preorder, so iteration by index is equivalent.
func (t *Tree) Nodes() []NodeID {
	ids := make([]NodeID, len(t.nodes))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// UniqueChildren reports whether all children of array node n are
// pairwise distinct JSON values — the Unique node test of §5.2. The
// general contract is quadratic pairwise comparison; this implementation
// buckets by subtree hash first, comparing structurally only within
// buckets, and is the default used by the JSL evaluator. See
// UniqueChildrenNaive for the literal quadratic algorithm.
func (t *Tree) UniqueChildren(n NodeID) bool {
	children := t.Children(n)
	if len(children) < 2 {
		return true
	}
	buckets := make(map[uint64][]NodeID, len(children))
	for _, c := range children {
		h := t.nodes[c].hash
		for _, prev := range buckets[h] {
			if t.SubtreeEqual(prev, c) {
				return false
			}
		}
		buckets[h] = append(buckets[h], c)
	}
	return true
}

// UniqueChildrenNaive is the quadratic pairwise implementation of the
// Unique test, kept for the ablation benchmark.
func (t *Tree) UniqueChildrenNaive(n NodeID) bool {
	children := t.Children(n)
	for i := 0; i < len(children); i++ {
		for j := i + 1; j < len(children); j++ {
			if t.SubtreeEqualNaive(children[i], children[j]) {
				return false
			}
		}
	}
	return true
}

// Dump renders the tree structure with one line per node, useful in
// tests and debugging: address, kind, edge label and value.
func (t *Tree) Dump() string {
	var sb strings.Builder
	var rec func(n NodeID, depth int)
	rec = func(n NodeID, depth int) {
		nd := &t.nodes[n]
		sb.WriteString(strings.Repeat("  ", depth))
		if n != 0 {
			if t.nodes[nd.parent].kind == ObjectNode {
				fmt.Fprintf(&sb, "%q -> ", t.key(nd))
			} else {
				fmt.Fprintf(&sb, "%d -> ", nd.pos)
			}
		}
		switch nd.kind {
		case ObjectNode:
			sb.WriteString("object")
		case ArrayNode:
			sb.WriteString("array")
		case StringNode:
			fmt.Fprintf(&sb, "string %q", t.str(nd))
		case NumberNode:
			fmt.Fprintf(&sb, "number %d", nd.num)
		}
		sb.WriteByte('\n')
		for _, c := range t.children(nd) {
			rec(c, depth+1)
		}
	}
	rec(0, 0)
	return sb.String()
}

// Validate checks the five well-formedness conditions of §3.1, and
// the arena invariants the accessors rely on, against the internal
// representation and returns the first violation found, or nil. The
// arena invariants: every child range lies in the child table and
// every key and string span in the heap; the nodes are in preorder —
// the root's subtree is the whole arena and each container's children
// tile its subtree one after the other, so node n's subtree is exactly
// [n, n+size) and every parent precedes its children; and object
// children are strictly key-sorted, the order ChildByKey's binary
// search needs. Every construction route produces valid trees;
// Validate exists so tests can assert the invariants.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("jsontree: empty tree has no root")
	}
	if root := &t.nodes[0]; root.parent != InvalidNode || int(root.size) != len(t.nodes) {
		return fmt.Errorf("jsontree: root has parent %d and subtree size %d in a %d-node arena", root.parent, root.size, len(t.nodes))
	}
	// First every range, so the structural pass can read any node's
	// children and keys.
	inHeap := func(s span) bool { return uint64(s.off)+uint64(s.n) <= uint64(len(t.heap)) }
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.first < 0 || nd.nkids < 0 || int(nd.first)+int(nd.nkids) > len(t.kids) {
			return fmt.Errorf("jsontree: node %d: child range [%d,+%d) outside the child table", i, nd.first, nd.nkids)
		}
		if !inHeap(nd.key) {
			return fmt.Errorf("jsontree: node %d: key span [%d,+%d) outside the %d-byte heap", i, nd.key.off, nd.key.n, len(t.heap))
		}
		if s := unpackSpan(nd.num); nd.kind == StringNode && !inHeap(s) {
			return fmt.Errorf("jsontree: node %d: string span [%d,+%d) outside the %d-byte heap", i, s.off, s.n, len(t.heap))
		}
	}
	for i := range t.nodes {
		n := NodeID(i)
		nd := &t.nodes[n]
		end := i + int(nd.size) // n's subtree is [n, end)
		if nd.size < 1 || end > len(t.nodes) {
			return fmt.Errorf("jsontree: node %d: subtree [%d,%d) outside the %d-node arena", n, n, end, len(t.nodes))
		}
		switch nd.kind {
		case StringNode, NumberNode:
			// Condition 4: strings and numbers are leaves.
			if nd.nkids != 0 || nd.size != 1 {
				return fmt.Errorf("jsontree: node %d: %s node has children", n, nd.kind)
			}
			continue
		case ObjectNode, ArrayNode:
		default:
			return fmt.Errorf("jsontree: node %d: unknown kind %d", n, nd.kind)
		}
		next := i + 1 // where preorder puts the next child
		kids := t.children(nd)
		for j, c := range kids {
			if int(c) != next || next >= end {
				return fmt.Errorf("jsontree: node %d: child %d is not at %d, where preorder within [%d,%d) puts it", n, c, next, n, end)
			}
			cn := &t.nodes[c]
			if cn.parent != n {
				return fmt.Errorf("jsontree: node %d: child %d has wrong parent", n, c)
			}
			// Condition 3: array edge labels are the positions 0..k-1
			// (object children carry their sibling index too).
			if int(cn.pos) != j {
				return fmt.Errorf("jsontree: node %d: child %d at position %d labelled %d", n, c, j, cn.pos)
			}
			// Conditions 1-2: object edges carry keys, keys unique.
			if nd.kind == ObjectNode && j > 0 {
				switch prev, k := t.EdgeKey(kids[j-1]), t.key(cn); {
				case prev == k:
					return fmt.Errorf("jsontree: node %d: duplicate key %q", n, k)
				case prev > k:
					return fmt.Errorf("jsontree: node %d: keys %q, %q out of order", n, prev, k)
				}
			}
			next += int(cn.size)
		}
		if next != end {
			return fmt.Errorf("jsontree: node %d: children cover [%d,%d) of its subtree [%d,%d)", n, i+1, next, n, end)
		}
	}
	return nil
}
