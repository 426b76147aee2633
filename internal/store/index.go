package store

import (
	"slices"
	"sync"

	"jsonlogic/internal/jsontree"
)

// 64-bit FNV-1a, the same construction jsonval uses for value hashes.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvUint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// stepHash folds one navigation step into a path hash. Key bytes are
// valid UTF-8 and therefore never 0xFF, so the terminator keeps
// adjacent keys from aliasing ("ab"+"c" vs "a"+"bc"); even a collision
// would only add false candidates, never drop a true one.
func stepHash(h uint64, s jsontree.Step) uint64 {
	if s.IsKey {
		h = fnvByte(h, 'k')
		h = fnvString(h, s.Key)
		return fnvByte(h, 0xFF)
	}
	h = fnvByte(h, 'i')
	return fnvUint64(h, uint64(s.Index))
}

// pathHash hashes a whole step path from the root.
func pathHash(steps []jsontree.Step) uint64 {
	h := fnvOffset
	for _, s := range steps {
		h = stepHash(h, s)
	}
	return h
}

// Term constructors. A presence term is the bare path hash; class and
// value terms mix in a tag plus the kind or the subtree's structural
// hash (jsonval.Value.Hash, which jsontree precomputes per node).
func presenceTerm(path uint64) uint64               { return path }
func classTerm(path uint64, k jsontree.Kind) uint64 { return fnvByte(fnvByte(path, 'C'), byte(k)) }
func valueTerm(path uint64, valHash uint64) uint64 {
	return fnvUint64(fnvByte(path, 'V'), valHash&valueHashMask)
}

// valueHashMask is all ones. Tests narrow it to a few bits so that
// distinct values at one path share a value term, the collision an
// exact find's text check must catch (exact_test.go).
var valueHashMask = ^uint64(0)

// effectiveFact returns the fact the index can actually answer: a
// fact deeper than the index bound degrades to the presence of its
// in-bound prefix — sound, because a node existing at the deep path
// implies every prefix path exists. The planner reports statistics
// against the effective fact, not the original.
func effectiveFact(f jsontree.PathFact, maxDepth int) jsontree.PathFact {
	if len(f.Steps) > maxDepth {
		return jsontree.PathFact{Steps: f.Steps[:maxDepth]}
	}
	return f
}

// factTerm converts one planner fact into its index term (degrading
// over-deep facts via effectiveFact, so the rule lives in one place).
// ok is false only for the trivial root-presence fact, which prunes
// nothing.
func factTerm(f jsontree.PathFact, maxDepth int) (term uint64, ok bool) {
	f = effectiveFact(f, maxDepth)
	p := pathHash(f.Steps)
	switch {
	case f.Value != nil:
		return valueTerm(p, f.Value.Hash()), true
	case f.HasClass:
		return classTerm(p, f.Class), true
	default:
		if len(f.Steps) == 0 {
			// Presence of the root is trivially true of every document;
			// planners do not emit it, but guard anyway.
			return 0, false
		}
		return presenceTerm(p), true
	}
}

// ordinal is a dense per-shard document number. The dictionary hands
// ordinals out monotonically and never recycles one until compaction
// renumbers the whole shard, which is what keeps posting-list appends
// sorted by construction.
type ordinal = uint32

// pathIndex is one shard's inverted index plus the shard's document
// dictionary. Documents are dictionary-encoded: each insert assigns
// the next dense uint32 ordinal, and posting lists store sorted
// ordinals instead of string IDs, so intersection is a merge over
// machine words rather than hash-map iteration. Deletes tombstone the
// ordinal (O(1) — no posting list is touched); probe filters dead
// ordinals out and compaction rewrites the lists once tombstones reach
// half the dictionary; a snapshot instead leaves the shard a fresh
// pathIndex holding only the writes it did not migrate into the new
// segment. The structure is not
// internally synchronized; the owning shard's lock covers it.
type pathIndex struct {
	maxDepth int

	// The dictionary: ordinal → (ID, tree, index-term count), with
	// ids[ord] == "" (and a nil tree) marking a tombstone, plus the
	// reverse map for the by-ID document operations. len(ords) is the
	// live count; termCounts lets remove adjust the live-entry counter
	// without re-walking the document.
	ids        []string
	trees      []*jsontree.Tree
	termCounts []uint32
	ords       map[string]ordinal
	dead       int

	// postings maps term hash → sorted ordinals of the documents that
	// carried the term when they were indexed; tombstoned ordinals
	// linger until compaction. entries counts live entries only.
	postings map[uint64][]ordinal
	entries  int
}

func newPathIndex(maxDepth int) *pathIndex {
	return &pathIndex{
		maxDepth: maxDepth,
		ords:     make(map[string]ordinal),
		postings: make(map[uint64][]ordinal),
	}
}

// live returns the number of live documents.
func (ix *pathIndex) live() int { return len(ix.ords) }

// get returns the live document stored under id.
func (ix *pathIndex) get(id string) (*jsontree.Tree, bool) {
	ord, ok := ix.ords[id]
	if !ok {
		return nil, false
	}
	return ix.trees[ord], true
}

// each calls fn for every live document.
func (ix *pathIndex) each(fn func(id string, t *jsontree.Tree)) {
	for ord, id := range ix.ids {
		if id != "" {
			fn(id, ix.trees[ord])
		}
	}
}

// docTerms enumerates the index terms of a document by walking the
// tree depth-first, folding each edge into the running path hash.
// Nodes deeper than maxDepth are not indexed (the query side refuses
// facts deeper than the bound, so no candidate is ever lost). The
// result is sorted and duplicate-free — distinct paths hash to
// distinct terms short of a 64-bit collision, but posting lists and
// the entries counter must stay exact even across one — so add and
// accounting-only removal see the identical term set. The segment
// writer re-walks captured documents with the same function, which is
// what makes memtable and segment posting lists agree term-for-term.
func docTerms(t *jsontree.Tree, maxDepth int) []uint64 {
	terms := make([]uint64, 0, 3*t.Len())
	var walk func(n jsontree.NodeID, h uint64, depth int)
	walk = func(n jsontree.NodeID, h uint64, depth int) {
		if depth > 0 {
			terms = append(terms, presenceTerm(h))
		}
		kind := t.Kind(n)
		terms = append(terms, classTerm(h, kind))
		switch kind {
		case jsontree.StringNode, jsontree.NumberNode:
			terms = append(terms, valueTerm(h, t.SubtreeHash(n)))
		default:
			if depth == maxDepth {
				return
			}
			for _, c := range t.Children(n) {
				var s jsontree.Step
				if kind == jsontree.ObjectNode {
					s = jsontree.Key(t.EdgeKey(c))
				} else {
					s = jsontree.Index(t.EdgePos(c))
				}
				walk(c, stepHash(h, s), depth+1)
			}
		}
	}
	walk(t.Root(), fnvOffset, 0)
	slices.Sort(terms)
	return slices.Compact(terms)
}

// add assigns id the next ordinal and indexes the document under it.
// The caller must have removed any previous document with the same ID
// (put does).
func (ix *pathIndex) add(id string, t *jsontree.Tree) {
	ord := ordinal(len(ix.ids))
	terms := docTerms(t, ix.maxDepth)
	ix.ids = append(ix.ids, id)
	ix.trees = append(ix.trees, t)
	ix.termCounts = append(ix.termCounts, uint32(len(terms)))
	ix.ords[id] = ord
	for _, term := range terms {
		// Ordinals are handed out monotonically, so appending keeps
		// every posting list sorted and duplicate-free.
		ix.postings[term] = append(ix.postings[term], ord)
	}
	ix.entries += len(terms)
}

// remove tombstones the document stored under id in O(1): the
// dictionary slot is cleared and the live-entry count adjusted from
// the term count recorded at add time (no re-walk of the document),
// while posting lists keep the dead ordinal until compaction. Reports
// whether id was live, and returns the removed tree.
func (ix *pathIndex) remove(id string) (*jsontree.Tree, bool) {
	ord, ok := ix.ords[id]
	if !ok {
		return nil, false
	}
	t := ix.trees[ord]
	ix.ids[ord] = ""
	ix.trees[ord] = nil
	delete(ix.ords, id)
	ix.dead++
	ix.entries -= int(ix.termCounts[ord])
	ix.maybeCompact()
	return t, true
}

// put inserts or replaces the document stored under id.
func (ix *pathIndex) put(id string, t *jsontree.Tree) {
	ix.remove(id)
	ix.add(id, t)
}

// maybeCompact compacts once tombstones reach the live count, so the
// amortized compaction cost per delete is O(1) index entries and
// posting lists never carry more than half garbage for long.
func (ix *pathIndex) maybeCompact() {
	if ix.dead > 0 && ix.dead >= len(ix.ords) {
		ix.compact()
	}
}

// compact renumbers the live documents densely (preserving ordinal
// order, so rebuilt posting lists stay sorted) and drops tombstoned
// ordinals from every posting list.
func (ix *pathIndex) compact() {
	if ix.dead == 0 {
		return
	}
	const deadOrd = ^ordinal(0)
	remap := make([]ordinal, len(ix.ids))
	next := ordinal(0)
	for ord, id := range ix.ids {
		if id == "" {
			remap[ord] = deadOrd
			continue
		}
		remap[ord] = next
		ix.ids[next] = id
		ix.trees[next] = ix.trees[ord]
		ix.termCounts[next] = ix.termCounts[ord]
		ix.ords[id] = next
		next++
	}
	// Clear the trailing slots so the shared backing array stops
	// keeping dead trees alive.
	for i := int(next); i < len(ix.trees); i++ {
		ix.ids[i] = ""
		ix.trees[i] = nil
	}
	ix.ids = ix.ids[:next]
	ix.trees = ix.trees[:next]
	ix.termCounts = ix.termCounts[:next]
	for term, post := range ix.postings {
		w := 0
		for _, ord := range post {
			if remap[ord] == deadOrd {
				continue
			}
			post[w] = remap[ord]
			w++
		}
		if w == 0 {
			delete(ix.postings, term)
		} else {
			ix.postings[term] = post[:w]
		}
	}
	ix.dead = 0
}

// probeScratch holds the reusable buffers of one probe: the resolved
// posting lists and the ping-pong intersection buffers. Scratches are
// pooled package-wide; a probe's result aliases either a posting list
// or a scratch buffer, so callers must consume it before releasing the
// scratch (and, because posting lists are shared, before releasing the
// shard lock).
type probeScratch struct {
	lists      [][]ordinal
	bufA, bufB []ordinal

	// Segment-tier scratch (segmentReader.probe): the resolved
	// compressed lists and the single-block decode buffer.
	segLists []postingList
	segBlock []ordinal
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

func acquireProbeScratch() *probeScratch  { return probePool.Get().(*probeScratch) }
func releaseProbeScratch(s *probeScratch) { probePool.Put(s) }

// probe intersects the posting lists of the given terms, smallest
// first, and returns the resulting sorted duplicate-free ordinals
// (tombstoned ordinals included — the caller filters while resolving
// against the dictionary) plus the number of merge steps taken — the
// intersection-cost counter /stats reports — and how many of the
// pairwise merges ran in galloping mode (the per-query trace records
// it per shard). A missing term short-circuits to the empty set
// without touching the other lists. Apart from scratch growth on
// first use, probe does not allocate.
func (ix *pathIndex) probe(terms []uint64, scr *probeScratch) (_ []ordinal, steps, gallops int) {
	if len(terms) == 0 {
		return nil, 0, 0
	}
	lists := scr.lists[:0]
	defer func() { scr.lists = lists }()
	for _, term := range terms {
		post, ok := ix.postings[term]
		if !ok {
			return nil, 0, 0
		}
		lists = append(lists, post)
	}
	// Ascending length order: the smallest pair first bounds every
	// later merge by the running intersection size. Insertion sort — the
	// planner caps intersections at maxPlanTerms lists.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	cur := lists[0]
	for i := 1; i < len(lists) && len(cur) > 0; i++ {
		// Ping-pong between the two scratch buffers, so cur (the
		// previous round's output) never aliases the buffer written.
		var dst []ordinal
		odd := i%2 == 1
		if odd {
			dst = scr.bufA[:0]
		} else {
			dst = scr.bufB[:0]
		}
		var s int
		var galloped bool
		dst, s, galloped = intersectInto(dst, cur, lists[i])
		steps += s
		if galloped {
			gallops++
		}
		if odd {
			scr.bufA = dst
		} else {
			scr.bufB = dst
		}
		cur = dst
	}
	return cur, steps, gallops
}

// gallopRatio is the list-length ratio past which the intersection
// gallops (exponential probe + binary search) through the longer list
// instead of merging linearly. At lower ratios the linear merge's
// branch predictability wins.
const gallopRatio = 8

// intersectInto appends the intersection of a and b (both sorted,
// duplicate-free, len(a) ≤ len(b)) to dst and returns it with the
// number of comparison steps — the work metric QueryStats aggregates —
// and whether the merge switched to galloping mode.
func intersectInto(dst, a, b []ordinal) ([]ordinal, int, bool) {
	if len(a) > len(b) {
		a, b = b, a
	}
	steps := 0
	if len(b) >= gallopRatio*len(a) {
		// Galloping (small-vs-large): for each element of a, advance in b
		// by doubling probes from the last match position, then binary
		// search the bracketed window. O(len(a) · log(len(b)/len(a))).
		lo := 0
		for _, x := range a {
			span := 1
			for lo+span < len(b) && b[lo+span] < x {
				span <<= 1
				steps++
			}
			hi := lo + span
			if hi > len(b) {
				hi = len(b)
			}
			for lo < hi { // binary search for the first b[i] >= x
				mid := (lo + hi) / 2
				steps++
				if b[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(b) && b[lo] == x {
				dst = append(dst, x)
				lo++
			} else if lo >= len(b) {
				break
			}
		}
		return dst, steps, true
	}
	// Small-vs-small: plain two-pointer merge.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		steps++
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst, steps, false
}
