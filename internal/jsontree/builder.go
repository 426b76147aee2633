package jsontree

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"jsonlogic/internal/jsonval"
)

// Builder constructs a Tree incrementally from a stream of structural
// events, without materializing an intermediate jsonval.Value. It is
// the one tree-construction body: Parse scans text straight into a
// pooled Builder, FromValue walks a Value into one, and the engine's
// tokenizer route (PUT /docs, /bulk, the NDJSON readers) replays
// tokens into one through the event methods below.
//
// Events mirror JSON structure: BeginObject/EndObject, BeginArray/
// EndArray, Key (before each object member's value), and the leaf events
// String and Number. Whatever the route, the trees are the same:
// children of objects are key-sorted, subtree hashes agree with
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
	nodes []node
	kids  []NodeID
	heap  []byte
	// keys holds each node's edge key as it was handed in, by built
	// node id: close sorts, checks and hashes object members by them
	// rather than by slices of heap.
	keys []string
	// stack holds the node ids of the open containers.
	stack []NodeID
	// reordered records that some object's members arrived out of key
	// order; ids is tree's scratch for renumbering them.
	reordered bool
	ids       []NodeID
	// pendingKey is the key of the next object member, set by Key.
	pendingKey string
	hasKey     bool
	done       bool
	err        error
}

// NewBuilder returns an empty Builder with room for a typical stored
// document (64 nodes, 512 bytes of keys and strings), so building one
// into a fresh Builder — PUT /docs takes one per request — costs one
// allocation per arena rather than one per doubling.
func NewBuilder() *Builder {
	return &Builder{
		nodes: make([]node, 0, 64),
		kids:  make([]NodeID, 0, 64),
		heap:  make([]byte, 0, 512),
		keys:  make([]string, 0, 64),
		stack: make([]NodeID, 0, 8),
	}
}

// Reset discards all state so the Builder can build another tree. The
// arenas' capacity is retained across documents; the handed-in keys
// are cleared so a reused Builder does not keep the last document's
// strings alive.
func (b *Builder) Reset() {
	b.nodes = b.nodes[:0]
	b.kids = b.kids[:0]
	b.heap = b.heap[:0]
	clear(b.keys)
	b.keys = b.keys[:0]
	b.stack = b.stack[:0]
	b.reordered = false
	b.pendingKey = ""
	b.hasKey = false
	b.done = false
	b.err = nil
}

func (b *Builder) fail(format string, args ...any) error {
	if b.err == nil {
		b.err = fmt.Errorf("jsontree: builder: "+format, args...)
	}
	return b.err
}

// The unchecked primitives below are what every route shares: Parse
// and FromValue call them directly, since their input is well formed
// by construction, and the event methods call them after checking
// the event order.

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

// begin checks that a value may start now and returns its edge key.
func (b *Builder) begin() (string, error) {
	if b.err != nil {
		return "", b.err
	}
	if b.done {
		return "", b.fail("value after the top-level value completed")
	}
	if len(b.stack) == 0 || b.nodes[b.stack[len(b.stack)-1]].kind != ObjectNode {
		return "", nil
	}
	if !b.hasKey {
		return "", b.fail("object member without a key")
	}
	b.hasKey = false
	return b.pendingKey, nil
}

// BeginObject opens an object value.
func (b *Builder) BeginObject() error {
	key, err := b.begin()
	if err == nil {
		b.open(ObjectNode, key)
	}
	return err
}

// BeginArray opens an array value.
func (b *Builder) BeginArray() error {
	key, err := b.begin()
	if err == nil {
		b.open(ArrayNode, key)
	}
	return err
}

// Key supplies the key of the next member of the open object.
func (b *Builder) Key(k string) error {
	if b.err != nil {
		return b.err
	}
	if len(b.stack) == 0 || b.nodes[b.stack[len(b.stack)-1]].kind != ObjectNode {
		return b.fail("key %q outside an object", k)
	}
	if b.hasKey {
		return b.fail("two keys in a row (%q, %q)", b.pendingKey, k)
	}
	b.pendingKey = k
	b.hasKey = true
	return nil
}

// String appends a string leaf.
func (b *Builder) String(s string) error {
	key, err := b.begin()
	if err == nil {
		b.addString(key, s)
		b.done = len(b.stack) == 0
	}
	return err
}

// Number appends a natural-number leaf.
func (b *Builder) Number(v uint64) error {
	key, err := b.begin()
	if err == nil {
		b.addNumber(key, v)
		b.done = len(b.stack) == 0
	}
	return err
}

// EndObject closes the open object.
func (b *Builder) EndObject() error {
	if err := b.end(ObjectNode); err != nil {
		return err
	}
	if b.hasKey {
		return b.fail("object ends after key %q with no value", b.pendingKey)
	}
	if key, dup := b.close(); dup {
		return b.fail("duplicate object key %q", key)
	}
	b.done = len(b.stack) == 0
	return nil
}

// EndArray closes the open array.
func (b *Builder) EndArray() error {
	if err := b.end(ArrayNode); err != nil {
		return err
	}
	b.close()
	b.done = len(b.stack) == 0
	return nil
}

// end checks that a container of the given kind is the one open.
func (b *Builder) end(kind Kind) error {
	if b.err != nil {
		return b.err
	}
	if len(b.stack) == 0 {
		return b.fail("end of %s with no open container", kind)
	}
	if open := b.nodes[b.stack[len(b.stack)-1]].kind; open != kind {
		return b.fail("end of %s closing an %s", kind, open)
	}
	return nil
}

// Tree returns the completed tree. It fails if no value was built, a
// container is still open, or any event errored. The returned tree owns
// its nodes: calling Reset and building again does not disturb it.
func (b *Builder) Tree() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.done {
		if len(b.stack) > 0 {
			return nil, b.fail("%d containers still open", len(b.stack))
		}
		return nil, b.fail("no value built")
	}
	return b.tree(), nil
}

// pool recycles the state of Parse and FromValue — a Builder's arenas
// and the lexer's escape buffer — across calls. Builders that grew
// past maxPooledNodes nodes or maxPooledHeap heap bytes are dropped
// rather than pinned in the pool.
var pool = sync.Pool{New: func() any { return new(parser) }}

const (
	maxPooledNodes = 1 << 16
	maxPooledHeap  = 1 << 20
)

func release(p *parser) {
	if cap(p.b.nodes) <= maxPooledNodes && cap(p.b.heap) <= maxPooledHeap {
		p.b.Reset()
		p.Reset("")
		pool.Put(p)
	}
}

// FromValue builds the JSON tree representing the value v, per the
// construction of §3.1: one node per nested JSON value, object edges
// labelled by keys (sorted for O(log k) key lookup — objects are
// unordered, so the order of object children is not meaningful), array
// edges labelled by position.
func FromValue(v *jsonval.Value) *Tree {
	p := pool.Get().(*parser)
	defer release(p)
	p.b.addValue("", v)
	return p.b.tree()
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
