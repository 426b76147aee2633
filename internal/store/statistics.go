package store

import (
	"jsonlogic/internal/jsontree"
)

// Statistics is the read-only view of the collection the cost-based
// planner consults: how many documents exist, how many carry a given
// index term, and how the leaf classes distribute at a path. The Store
// implements it over its inverted index; tests feed the planner
// synthetic implementations.
type Statistics interface {
	// DocCount returns the number of stored documents.
	DocCount() int
	// TermCardinality returns the total posting-list length of an index
	// term across all shards — an O(1) slice length per shard under the
	// dictionary encoding. Tombstoned (deleted but not yet compacted)
	// documents still count, so the cardinality is an upper bound on
	// the live documents carrying the term, never an undercount: the
	// planner's estimates stay provable upper bounds. Zero for unknown
	// terms.
	TermCardinality(term uint64) int
	// ClassHistogram returns, per node kind, how many documents have a
	// node of that kind at the exact path. The histogram is derived
	// from the index's class terms, so it shares their depth bound.
	ClassHistogram(steps []jsontree.Step) ClassCounts
}

// ClassCounts is a per-kind document count, indexed by jsontree.Kind.
type ClassCounts [4]int

// Map renders the histogram with JSON Schema type names, for /stats
// and /explain payloads; zero classes are omitted.
func (c ClassCounts) Map() map[string]int {
	out := make(map[string]int, 4)
	for k, n := range c {
		if n > 0 {
			out[jsontree.Kind(k).String()] = n
		}
	}
	return out
}

// DocCount implements Statistics.
func (s *Store) DocCount() int { return s.Len() }

// TermCardinality implements Statistics: the posting-list length of
// the term summed over shards and tiers — the memtable's slice length
// plus the segment term directory's count, both O(1) per shard
// (the segment count is read from the directory entry, no block is
// decoded). Segment counts include tombstoned ordinals, like the
// memtable's, preserving the upper-bound contract.
func (s *Store) TermCardinality(term uint64) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.ix.postings[term]) + sh.seg.cardinality(term)
		sh.mu.RUnlock()
	}
	return n
}

// ClassHistogram implements Statistics by probing the four class terms
// of the path.
func (s *Store) ClassHistogram(steps []jsontree.Step) ClassCounts {
	var out ClassCounts
	p := pathHash(steps)
	for k := range out {
		out[k] = s.TermCardinality(classTerm(p, jsontree.Kind(k)))
	}
	return out
}
