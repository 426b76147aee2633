package store

// exact_test.go: exact finds. A find whose plan is FindExact answers
// its segment candidates by checking every fact on the stored text
// instead of parsing and evaluating them. These tests hold that route
// to the QIR route and the reference scan on every tier combination,
// with the index's value terms narrowed so that hash collisions put
// wrong documents among the candidates, and pin its allocations.

import (
	"fmt"
	"math/rand"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/trace"
)

// narrowValueTerms makes valueTerm keep only bits bits of a value's
// hash for the rest of the test, so distinct values at one path share
// a posting list. It must be set before the stores are built: the
// memtable, the segment writer and the planner all derive terms
// through it.
func narrowValueTerms(t *testing.T, bits uint) {
	old := valueHashMask
	valueHashMask = 1<<bits - 1
	t.Cleanup(func() { valueHashMask = old })
}

// exactCorpusDoc is a random gen document under a tenant block, so the
// tenant shapes and the gen query sources both find matches.
func exactCorpusDoc(r *rand.Rand, i int) string {
	members := []jsonval.Member{{Key: "meta", Value: jsonval.MustObj(
		jsonval.Member{Key: "tenant", Value: jsonval.Str(fmt.Sprintf("t%d", i%20))},
		jsonval.Member{Key: "seq", Value: jsonval.Num(uint64(i))},
	)}}
	if v := gen.Document(r, storeDiffDocOptions()); v.IsObject() {
		members = append(members, v.Members()...)
	} else {
		members = append(members, jsonval.Member{Key: "k0", Value: v})
	}
	seen := map[string]bool{}
	out := members[:0]
	for _, m := range members {
		if !seen[m.Key] {
			seen[m.Key] = true
			out = append(out, m)
		}
	}
	return jsonval.MustObj(out...).String()
}

// exactTierStores builds the three tier combinations over one corpus:
// memtable-only (never snapshotted), segment-only (snapshotted and
// reopened, so every document is read from the segment) and mixed
// (reopened, then overwrites and deletes that tombstone segment
// documents, and fresh inserts, all in the memtable).
func exactTierStores(t *testing.T, r *rand.Rand, docs int) map[string]*Store {
	t.Helper()
	corpus := make([]string, docs)
	for i := range corpus {
		corpus[i] = exactCorpusDoc(r, i)
	}
	load := func(s *Store) {
		for i, doc := range corpus {
			if err := s.Put(fmt.Sprintf("doc%04d", i), doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopened := func() *Store {
		opts := Options{Shards: 4, DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: -1}
		s := openDurable(t, opts)
		load(s)
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openDurable(t, opts)
		t.Cleanup(func() { s.Close() })
		for _, sh := range s.shards {
			if sh.ix.live() != 0 || sh.seg.live == 0 {
				t.Fatal("reopened store did not serve from the segment tier")
			}
		}
		return s
	}
	mem := New(Options{Shards: 4})
	load(mem)
	mixed := reopened()
	for i := 0; i < docs/4; i++ {
		id := fmt.Sprintf("doc%04d", r.Intn(docs))
		if r.Intn(3) == 0 {
			if _, err := mixed.Delete(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := mixed.Put(id, exactCorpusDoc(r, r.Intn(docs))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < docs/8; i++ {
		if err := mixed.Put(fmt.Sprintf("new%04d", i), exactCorpusDoc(r, i)); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*Store{"memtable": mem, "segment": reopened(), "mixed": mixed}
}

// exactSource deals a query: one of the three tenant shapes, or a
// random plan from a gen front-end source.
func exactSource(r *rand.Rand) (engine.Language, string) {
	tenant := fmt.Sprintf(`"t%d"`, r.Intn(22))
	switch r.Intn(7) {
	case 0:
		return engine.LangMongoFind, fmt.Sprintf(`{"meta.tenant":%s}`, tenant)
	case 1:
		return engine.LangJNL, fmt.Sprintf(`eq(/meta/tenant, %s)`, tenant)
	case 2:
		return engine.LangJSL, fmt.Sprintf(`some("meta", some("tenant", eq(%s)))`, tenant)
	case 3:
		return engine.LangMongoFind, gen.RandomMongoSource(r, 2)
	case 4:
		return engine.LangJNL, gen.RandomJNLSource(r, 3)
	case 5:
		return engine.LangJSL, gen.RandomJSLSource(r, 3)
	}
	return engine.LangJSONPath, gen.RandomJSONPathSource(r)
}

// probeChecks sums the exact check's verified and rejected segment
// candidates over a trace's probe spans.
func probeChecks(tr *trace.Trace) (verified, rejected int64) {
	var walk func(sp *trace.SpanOut)
	walk = func(sp *trace.SpanOut) {
		if sp.Name == "probe" {
			v, _ := sp.Attrs["verified"].(int64)
			x, _ := sp.Attrs["rejected"].(int64)
			verified += v
			rejected += x
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range tr.Spans() {
		walk(sp)
	}
	return verified, rejected
}

// runExactTiers requires, on every tier combination and for every
// query, the exact route (Find) ≡ the QIR route (the same index plan
// with exactness off) ≡ the reference scan, and returns the segment
// candidates the exact check verified and rejected.
func runExactTiers(t *testing.T, seed int64, queries int) (verified, rejected int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	stores := exactTierStores(t, r, 240)
	exactPlans := 0
	for i := 0; i < queries; i++ {
		lang, src := exactSource(r)
		for _, tier := range []string{"memtable", "segment", "mixed"} {
			s := stores[tier]
			p, err := s.Engine().Compile(lang, src)
			if err != nil {
				t.Fatalf("generator bug: %q: %v", src, err)
			}
			tr := trace.NewTrace("find")
			got, _, err := s.FindTraced(nil, p, tr)
			if err != nil {
				t.Fatalf("%s: Find(%q): %v", tier, src, err)
			}
			v, x := probeChecks(tr)
			verified += v
			rejected += x
			want, err := s.FindScan(p)
			if err != nil {
				t.Fatalf("%s: FindScan(%q): %v", tier, src, err)
			}
			if !sameIDs(got, want) {
				t.Fatalf("%s: Find(%q) disagrees with the scan\nfind: %v\nscan: %v", tier, src, got, want)
			}
			plan := s.accessPlan(p, p.FindFacts(), false, nil)
			if plan.Access != AccessIndex {
				continue
			}
			if p.FindExact() {
				exactPlans++
			}
			viaQIR, _, _, err := run(nil, s, p, nil, &plan, findCollector)
			if err != nil {
				t.Fatalf("%s: QIR-route Find(%q): %v", tier, src, err)
			}
			if !sameIDs(got, viaQIR) {
				t.Fatalf("%s: exact route disagrees with the QIR route on %q\nexact: %v\nqir:   %v", tier, src, got, viaQIR)
			}
		}
	}
	if exactPlans == 0 || verified == 0 {
		t.Fatalf("%d indexed exact plans, %d verified candidates: the exact route was not exercised", exactPlans, verified)
	}
	t.Logf("%d indexed exact plans; segment candidates verified %d, rejected %d", exactPlans, verified, rejected)
	return verified, rejected
}

// TestExactFindTierCombinations: full 64-bit value terms, so a rejected
// candidate is one a skipped or prefix term let through.
func TestExactFindTierCombinations(t *testing.T) {
	runExactTiers(t, 71, 600)
}

// TestExactFindRejectsCollisions narrows value terms to two bits:
// about a quarter of all tenants then share each tenant's posting
// list, so the probe hands the check documents of other tenants, and
// the answers stay exact only because the check rejects them.
func TestExactFindRejectsCollisions(t *testing.T) {
	narrowValueTerms(t, 2)
	if _, rejected := runExactTiers(t, 72, 600); rejected == 0 {
		t.Fatal("no colliding candidate reached the exact check")
	}
}

// TestExactFindAllocsBounded pins the exact route's allocations on a
// reopened segment store: they do not grow with the hit count. A find
// with 1 000 hits allocates no more than one with 10, beyond a
// constant per shard for the slices presized from the probe.
func TestExactFindAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	opts := Options{Shards: 2, DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: -1}
	s := openDurable(t, opts)
	for i := 0; i < 3000; i++ {
		tenant := fmt.Sprintf("t%d", i%40)
		switch {
		case i%3 == 0:
			tenant = "big"
		case i < 300 && i%30 == 1:
			tenant = "small"
		}
		if err := s.Put(fmt.Sprintf("doc%05d", i), fmt.Sprintf(`{"meta":{"seq":%d,"tenant":%q},"n":%d}`, i, tenant, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openDurable(t, opts)
	defer s.Close()
	allocs := func(tenant string, hits int) float64 {
		p := engine.MustCompile(engine.LangMongoFind, fmt.Sprintf(`{"meta.tenant":%q}`, tenant))
		if !p.FindExact() {
			t.Fatalf("%s: plan is not exact", p.Source())
		}
		ex, err := s.Explain(nil, p, "find")
		if err != nil || !ex.Exact || ex.Access != "index" || ex.ActualResults != hits {
			t.Fatalf("%s: explain %+v (err %v), want an exact indexed find of %d", p.Source(), ex, err, hits)
		}
		return measureAllocs(func() {
			if ids, _, err := s.Find(p); err != nil || len(ids) != hits {
				t.Fatalf("%s: %d ids, err %v", p.Source(), len(ids), err)
			}
		})
	}
	few, many := allocs("small", 10), allocs("big", 1000)
	if many > few+2*float64(len(s.shards)) {
		t.Fatalf("exact find allocations grow with hits: %v allocs for 10 hits, %v for 1000", few, many)
	}
	t.Logf("exact find: %v allocs for 10 hits, %v for 1000", few, many)
}

// TestExactFindReadsNoTree: an exact find over a reopened store
// leaves the segment's resolve cache empty — its candidates are
// checked on their text, never parsed — while a non-exact find over
// the same candidates fills it.
func TestExactFindReadsNoTree(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := exactTierStores(t, r, 120)["segment"]
	cached := func() int {
		n := 0
		for _, sh := range s.shards {
			for i := range sh.seg.r.cache {
				if sh.seg.r.cache[i].Load() != nil {
					n++
				}
			}
		}
		return n
	}
	exact := engine.MustCompile(engine.LangMongoFind, `{"meta.tenant":"t3"}`)
	if ids, indexed, err := s.Find(exact); err != nil || !indexed || len(ids) != 6 {
		t.Fatalf("exact find: %v indexed=%v err %v", ids, indexed, err)
	}
	if n := cached(); n != 0 {
		t.Fatalf("exact find parsed %d segment documents", n)
	}
	inexact := engine.MustCompile(engine.LangMongoFind, `{"meta.tenant":"t3","meta.seq":{"$gte":0}}`)
	if inexact.FindExact() {
		t.Fatal("range query claims exact facts")
	}
	if ids, _, err := s.Find(inexact); err != nil || len(ids) != 6 {
		t.Fatalf("inexact find: %v err %v", ids, err)
	}
	if cached() == 0 {
		t.Fatal("inexact find resolved no segment document; the check above is vacuous")
	}
}
