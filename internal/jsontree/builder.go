package jsontree

import (
	"math"
	"slices"
	"strings"
	"sync"

	"jsonlogic/internal/jsonval"
)

// Builder constructs Trees. It is the one tree-construction body:
// its Parse scans JSON text straight into its arenas (the package's
// Parse is the same over a pooled Builder), and FromValue walks a
// Value into a pooled one. Whatever the route, the trees are the
// same: children of objects are key-sorted, subtree hashes agree with
// jsonval.Value.Hash, and Tree.Validate holds.
//
// Nodes are appended in preorder, so when a container closes its
// descendants are exactly the nodes after it, and its children are
// found by hopping from one child to the next by subtree size. They
// are recorded as one range of a child table shared by the whole tree
// — no per-container slice — and every key and string is copied into
// one byte heap, so Tree makes four allocations: the node arena, the
// child table, the heap and the Tree. The tree keeps nothing it was
// handed.
//
// A Builder is not safe for concurrent use; pool one per goroutine.
type Builder struct {
	lex   jsonval.Lexer[string]
	nodes []node
	kids  []NodeID
	heap  []byte
	// keys holds each node's edge key as it was handed in, by built
	// node id: close sorts, checks and hashes object members by them
	// rather than by slices of heap.
	keys []string
	// stack holds the node ids of the open containers; its length is
	// the nesting depth.
	stack []NodeID
	// reordered records that some object's members arrived out of key
	// order; ids is tree's scratch for renumbering them.
	reordered bool
	ids       []NodeID
}

// NewBuilder returns an empty Builder with room for a typical stored
// document (64 nodes, 512 bytes of keys and strings), so parsing one
// with a fresh Builder costs one allocation per arena rather than one
// per doubling.
func NewBuilder() *Builder {
	return &Builder{
		nodes: make([]node, 0, 64),
		kids:  make([]NodeID, 0, 64),
		heap:  make([]byte, 0, 512),
		keys:  make([]string, 0, 64),
		stack: make([]NodeID, 0, 8),
	}
}

// reset discards all state so the Builder can build another tree. The
// arenas' capacity is retained across documents; the lexer's input
// and the handed-in keys are cleared so a reused Builder does not
// keep the last document's text alive.
func (b *Builder) reset() {
	b.lex.Reset("")
	b.nodes = b.nodes[:0]
	b.kids = b.kids[:0]
	b.heap = b.heap[:0]
	clear(b.keys)
	b.keys = b.keys[:0]
	b.stack = b.stack[:0]
	b.reordered = false
}

// The unchecked primitives below are what every route shares: Parse's
// grammar and FromValue call them directly.

// push appends the next preorder node, under the innermost open
// container (or as the root), and returns it for the caller to fill.
func (b *Builder) push(kind Kind, key string) *node {
	parent := InvalidNode
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
	}
	b.nodes = append(b.nodes, node{kind: kind, parent: parent, key: b.store(key)})
	b.keys = append(b.keys, key)
	return &b.nodes[len(b.nodes)-1]
}

// store copies s into the heap and returns its span there.
func (b *Builder) store(s string) span {
	if s == "" {
		return span{}
	}
	if uint64(len(b.heap))+uint64(len(s)) > math.MaxUint32 {
		panic("jsontree: a tree's keys and strings exceed 4 GiB")
	}
	sp := span{off: uint32(len(b.heap)), n: uint32(len(s))}
	b.heap = append(b.heap, s...)
	return sp
}

func (b *Builder) addString(key, s string) {
	n := b.push(StringNode, key)
	n.num, n.hash, n.size = b.store(s).packed(), jsonval.HashString(s), 1
}

func (b *Builder) addNumber(key string, v uint64) {
	n := b.push(NumberNode, key)
	n.num, n.hash, n.size = v, jsonval.HashNumber(v), 1
}

// open starts a container; its children follow until close.
func (b *Builder) open(kind Kind, key string) {
	b.push(kind, key)
	b.stack = append(b.stack, NodeID(len(b.nodes)-1))
}

// close seals the innermost open container: it records the children
// in the child table — objects' sorted by key (condition 2 of §3.1:
// object edges form a key, so their order carries no meaning and is
// canonicalized) — labels their positions and computes the subtree
// hash, size and height. A repeated object key is returned with
// dup = true; the caller reports it.
func (b *Builder) close() (key string, dup bool) {
	id := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	first := len(b.kids)
	size, height := int32(1), int32(0)
	for c := id + 1; int(c) < len(b.nodes); c += NodeID(b.nodes[c].size) {
		b.kids = append(b.kids, c)
		cn := &b.nodes[c]
		size += cn.size
		height = max(height, cn.height+1)
	}
	kids := b.kids[first:]
	n := &b.nodes[id]
	n.first, n.nkids, n.size, n.height = int32(first), int32(len(kids)), size, height
	if n.kind == ArrayNode {
		var ah jsonval.ArrayHasher
		for i, c := range kids {
			b.nodes[c].pos = int32(i)
			ah.Add(b.nodes[c].hash)
		}
		n.hash = ah.Sum()
		return "", false
	}
	if sortByKey(b.keys, kids) {
		b.reordered = true
	}
	var oh jsonval.ObjectHasher
	for i, c := range kids {
		if i > 0 && b.keys[kids[i-1]] == b.keys[c] {
			return b.keys[c], true
		}
		cn := &b.nodes[c]
		cn.pos = int32(i)
		oh.Add(b.keys[c], cn.hash)
	}
	n.hash = oh.Sum()
	return "", false
}

// sortByKey orders an object's children by key and reports whether
// any moved. The check is linear on already-sorted members — the text
// segments and the WAL store is key-sorted — and pdqsort keeps
// reverse-ordered input from making a build quadratic.
func sortByKey(keys []string, kids []NodeID) (moved bool) {
	byKey := func(a, b NodeID) int { return strings.Compare(keys[a], keys[b]) }
	if slices.IsSortedFunc(kids, byKey) {
		return false
	}
	slices.SortFunc(kids, byKey)
	return true
}

// tree copies the built arenas out: four allocations, none shared
// with the Builder. Node ids must not depend on the order object
// members arrived in — evaluators report selections in node order —
// so when some object was reordered the copy renumbers the nodes into
// preorder over the key-sorted children; the heap spans move with
// their nodes. Text written by the store is key-sorted and copies
// straight.
func (b *Builder) tree() *Tree {
	nodes := make([]node, len(b.nodes))
	kids := make([]NodeID, len(b.kids))
	heap := string(b.heap)
	if !b.reordered {
		copy(nodes, b.nodes)
		copy(kids, b.kids)
		return &Tree{nodes: nodes, kids: kids, heap: heap}
	}
	// ids maps built ids to final ones. Parents precede their children
	// in either preorder, so each container's id is known when its
	// children are placed: consecutively after it, each one past the
	// previous one's subtree.
	ids := slices.Grow(b.ids[:0], len(b.nodes))[:len(b.nodes)]
	ids[0] = 0
	for i := range b.nodes {
		next := ids[i] + 1
		for _, c := range b.kids[b.nodes[i].first : b.nodes[i].first+b.nodes[i].nkids] {
			ids[c] = next
			next += NodeID(b.nodes[c].size)
		}
	}
	for i, n := range b.nodes {
		if n.parent != InvalidNode {
			n.parent = ids[n.parent]
		}
		nodes[ids[i]] = n
	}
	for i, c := range b.kids {
		kids[i] = ids[c]
	}
	b.ids = ids
	return &Tree{nodes: nodes, kids: kids, heap: heap}
}

// pool recycles Builders — their arenas and the lexer's escape
// buffer — across Parse and FromValue calls. Builders that grew past
// maxPooledNodes nodes or maxPooledHeap heap bytes are dropped rather
// than pinned in the pool.
var pool = sync.Pool{New: func() any { return new(Builder) }}

const (
	maxPooledNodes = 1 << 16
	maxPooledHeap  = 1 << 20
)

func release(b *Builder) {
	if cap(b.nodes) <= maxPooledNodes && cap(b.heap) <= maxPooledHeap {
		b.reset()
		pool.Put(b)
	}
}

// FromValue builds the JSON tree representing the value v, per the
// construction of §3.1: one node per nested JSON value, object edges
// labelled by keys (sorted for O(log k) key lookup — objects are
// unordered, so the order of object children is not meaningful), array
// edges labelled by position.
func FromValue(v *jsonval.Value) *Tree {
	b := pool.Get().(*Builder)
	defer release(b)
	b.addValue("", v)
	return b.tree()
}

func (b *Builder) addValue(key string, v *jsonval.Value) {
	switch v.Kind() {
	case jsonval.Number:
		b.addNumber(key, v.Num())
	case jsonval.String:
		b.addString(key, v.Str())
	case jsonval.Array:
		b.open(ArrayNode, key)
		for _, e := range v.Elems() {
			b.addValue("", e)
		}
		b.close()
	case jsonval.Object:
		b.open(ObjectNode, key)
		for _, m := range v.Members() {
			b.addValue(m.Key, m.Value)
		}
		b.close() // a Value's keys are distinct by construction
	}
}
