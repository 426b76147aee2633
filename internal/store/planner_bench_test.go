package store

import (
	"fmt"
	"runtime"
	"testing"

	"jsonlogic/internal/engine"
)

// Planner benchmarks (committed to BENCH_4.json): indexed versus scan
// versus forced-index access on selective and unselective queries at
// 10k/100k documents, plus the ordered-intersection ablation. They
// live in the store package (unlike the root suite) because the
// forced-index and intersection variants need the unexported probe
// machinery the planner normally guards.

var plannerBenchSizes = []int{10000, 100000}

var plannerBenchStores = map[int]*Store{}

// plannerBenchStore builds (once per size) a collection where
// "group" splits the documents 64 ways, "tags.color" 5 ways, and
// "flag" is carried by everyone — a selective, a medium and a useless
// index term.
func plannerBenchStore(b *testing.B, n int) *Store {
	b.Helper()
	if s, ok := plannerBenchStores[n]; ok {
		return s
	}
	s := New(Options{Shards: 16})
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"group":"g%d","flag":"on","tags":{"color":"c%d"},"n":%d}`,
			i%64, i%5, i)
		if err := s.Put(fmt.Sprintf("doc%07d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
	plannerBenchStores[n] = s
	return s
}

// BenchmarkStorePlannerSelective: a two-term conjunctive filter where
// the planner intersects selectivity-ordered posting lists (1/64 then
// 1/5 of the collection; ~1/320 matches) against the full scan.
func BenchmarkStorePlannerSelective(b *testing.B) {
	plan := engine.MustCompile(engine.LangMongoFind, `{"group":"g7","tags.color":"c3"}`)
	for _, n := range plannerBenchSizes {
		s := plannerBenchStore(b, n)
		want := 0
		for i := 0; i < n; i++ {
			if i%64 == 7 && i%5 == 3 {
				want++
			}
		}
		b.Run(fmt.Sprintf("indexed/docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, indexed, err := s.Find(plan)
				if err != nil || !indexed || len(ids) != want {
					b.Fatalf("got %d docs (indexed=%v err=%v), want %d", len(ids), indexed, err, want)
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

// BenchmarkStorePlannerUnselective: a filter every document matches.
// The cost-based planner routes it to the scan; the forced-index
// variant shows what the old all-or-nothing heuristic would have paid
// for probing a full-collection posting list first.
func BenchmarkStorePlannerUnselective(b *testing.B) {
	plan := engine.MustCompile(engine.LangMongoFind, `{"flag":"on"}`)
	for _, n := range plannerBenchSizes {
		s := plannerBenchStore(b, n)
		b.Run(fmt.Sprintf("planner-scan/docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, indexed, err := s.Find(plan)
				if err != nil || indexed || len(ids) != n {
					b.Fatalf("got %d docs (indexed=%v err=%v), want scan of %d", len(ids), indexed, err, n)
				}
			}
		})
		b.Run(fmt.Sprintf("forced-index/docs=%d", n), func(b *testing.B) {
			// Bypass the planner: probe every fact term like the old
			// all-or-nothing path did.
			var terms []uint64
			for _, f := range plan.FindFacts() {
				if term, ok := factTerm(f, s.opts.MaxIndexDepth); ok {
					terms = append(terms, term)
				}
			}
			forced := &QueryPlan{Access: AccessIndex, probeTerms: terms}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, _, _, err := run(nil, s, plan, nil, forced, findCollector)
				if err != nil || len(ids) != n {
					b.Fatalf("got %d docs (err %v), want %d", len(ids), err, n)
				}
			}
		})
	}
}

// BenchmarkStoreIntersection isolates the tentpole win at the index
// layer: intersecting dictionary-encoded sorted posting lists with the
// galloping/small-vs-small merge versus the retired map-set
// intersection (rebuilt here from the same lists, hashing included in
// setup only), on a worst-first term list (useless term leads).
func BenchmarkStoreIntersection(b *testing.B) {
	for _, n := range plannerBenchSizes {
		s := plannerBenchStore(b, n)
		facts := engine.MustCompile(engine.LangMongoFind,
			`{"flag":"on","tags.color":"c3","group":"g7"}`).FindFacts()
		var terms []uint64
		for _, f := range facts {
			if term, ok := factTerm(f, s.opts.MaxIndexDepth); ok {
				terms = append(terms, term)
			}
		}
		b.Run(fmt.Sprintf("galloping/docs=%d", n), func(b *testing.B) {
			scr := acquireProbeScratch()
			defer releaseProbeScratch(scr)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got := 0
				for _, sh := range s.shards {
					sh.mu.RLock()
					ords, _, _ := sh.ix.probe(terms, scr)
					got += len(ords)
					sh.mu.RUnlock()
				}
				if got == 0 {
					b.Fatal("intersection came up empty")
				}
			}
		})
		b.Run(fmt.Sprintf("map/docs=%d", n), func(b *testing.B) {
			// The pre-dictionary representation: one hash set per term per
			// shard, intersected by iterating the smallest set and probing
			// the rest — exactly the shape of the old probe.
			shardSets := make([][]map[ordinal]struct{}, len(s.shards))
			for si, sh := range s.shards {
				sets := make([]map[ordinal]struct{}, len(terms))
				for ti, term := range terms {
					set := make(map[ordinal]struct{}, len(sh.ix.postings[term]))
					for _, ord := range sh.ix.postings[term] {
						set[ord] = struct{}{}
					}
					sets[ti] = set
				}
				shardSets[si] = sets
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				for _, sets := range shardSets {
					smallest := 0
					for ti := range sets {
						if len(sets[ti]) < len(sets[smallest]) {
							smallest = ti
						}
					}
					for ord := range sets[smallest] {
						in := true
						for ti := range sets {
							if ti == smallest {
								continue
							}
							if _, ok := sets[ti][ord]; !ok {
								in = false
								break
							}
						}
						if in {
							got++
						}
					}
				}
				if got == 0 {
					b.Fatal("intersection came up empty")
				}
			}
		})
	}
}

// BenchmarkStoreFanout compares the parallel shard fan-out against the
// same query forced serial (setQueryWorkers(1)) on the selective two-term
// find. On a single-core container GOMAXPROCS is 1 and the two series
// coincide (the fan-out runs inline); at GOMAXPROCS ≥ 2 the parallel
// series divides by the worker count.
func BenchmarkStoreFanout(b *testing.B) {
	plan := engine.MustCompile(engine.LangMongoFind, `{"group":"g7","tags.color":"c3"}`)
	for _, n := range plannerBenchSizes {
		s := plannerBenchStore(b, n)
		for _, workers := range fanoutBenchWorkers() {
			b.Run(fmt.Sprintf("workers=%d/docs=%d", workers, n), func(b *testing.B) {
				defer s.setQueryWorkers(s.setQueryWorkers(workers))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ids, _, err := s.Find(plan)
					if err != nil || len(ids) == 0 {
						b.Fatalf("find: %d ids, err %v", len(ids), err)
					}
				}
			})
		}
	}
}

// fanoutBenchWorkers is 1 (serial baseline) plus GOMAXPROCS when the
// host actually has parallelism to show.
func fanoutBenchWorkers() []int {
	out := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		out = append(out, n)
	}
	return out
}
