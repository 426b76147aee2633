package store

// write_test.go: the battery for the one mutation body (Store.write).
// Every public mutation kind is driven against every tier state an ID
// can be in, on an in-memory store and on a durable one that is then
// crashed and reopened, with a plain map as the model; and the write
// path's allocation count is pinned for the first time.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
)

// TestMutationKindsAgree: {Put, PutTree, bulk auto-ID, Delete} ×
// {in-memory, durable + crash + reopen} × {id absent, id in the
// memtable, id live in the segment, id tombstoned in the segment}.
// After every step the store must agree with the model on the
// operation's result, Len, every document, the per-tier gauges /stats
// serves, and index ≡ scan.
func TestMutationKindsAgree(t *testing.T) {
	states := []string{"absent", "memtable", "segment", "tombstoned"}
	kinds := []string{"Put", "PutTree", "bulk", "Delete"}
	const seedDoc, newDoc = `{"tag":"old","n":1}`, `{"tag":"new","n":2}`

	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{Shards: 2}
			var s *Store
			if durable {
				opts.DataDir, opts.Fsync, opts.SnapshotEvery = t.TempDir(), FsyncAlways, -1
				s = openDurable(t, opts)
			} else {
				s = New(opts)
			}
			defer func() { s.Close() }()
			model := map[string]string{}   // id → compact JSON
			inSegment := map[string]bool{} // ids whose live version is segment-resident

			check := func(step string) {
				t.Helper()
				checkAgainstModel(t, step, s, model)
				if !durable {
					return
				}
				ds := s.Stats().Durability
				wantSeg := 0
				for id := range model {
					if inSegment[id] {
						wantSeg++
					}
				}
				if ds.SegmentDocs != wantSeg || ds.MemtableDocs != len(model)-wantSeg {
					t.Fatalf("%s: tier gauges segment_docs=%d memtable_docs=%d, want %d / %d",
						step, ds.SegmentDocs, ds.MemtableDocs, wantSeg, len(model)-wantSeg)
				}
			}
			put := func(id, doc string) {
				t.Helper()
				if err := s.Put(id, doc); err != nil {
					t.Fatal(err)
				}
				model[id] = doc
				delete(inSegment, id)
			}
			snapshot := func() {
				t.Helper()
				if err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				for id := range model {
					inSegment[id] = true
				}
			}

			for _, state := range states {
				if !durable && (state == "segment" || state == "tombstoned") {
					continue // an in-memory store has no segment tier
				}
				for _, kind := range kinds {
					step := state + "/" + kind
					id := "id-" + state + "-" + kind
					if kind == "bulk" {
						// Bulk assigns its own ID: occupy the next one in the
						// sequence in the state under test, so the ifAbsent
						// path has to step over (or reuse) exactly this ID.
						id = fmt.Sprintf("d%08d", s.seq.Load())
					}
					// Arrange the state.
					switch state {
					case "memtable":
						put(id, seedDoc)
					case "segment":
						put(id, seedDoc)
						snapshot()
					case "tombstoned":
						put(id, seedDoc)
						snapshot()
						if ok, err := s.Delete(id); !ok || err != nil {
							t.Fatalf("%s: arranging tombstone: %v %v", step, ok, err)
						}
						delete(model, id)
						delete(inSegment, id)
					}
					check(step + " (arranged)")
					_, wasLive := model[id]

					// Act.
					switch kind {
					case "Put":
						put(id, newDoc)
					case "PutTree":
						if err := s.PutTree(id, jsontree.MustParse(newDoc)); err != nil {
							t.Fatal(err)
						}
						model[id] = newDoc
						delete(inSegment, id)
					case "bulk":
						res, err := s.BulkNDJSON(strings.NewReader(newDoc + "\n"))
						if err != nil || len(res.IDs) != 1 || res.Durable != 1 {
							t.Fatalf("%s: bulk = %+v, %v", step, res, err)
						}
						if got := res.IDs[0]; wasLive == (got == id) {
							t.Fatalf("%s: bulk assigned %q with %q live=%v: a live ID must be skipped, a free one taken", step, got, id, wasLive)
						}
						model[res.IDs[0]] = newDoc
					case "Delete":
						ok, err := s.Delete(id)
						if err != nil || ok != wasLive {
							t.Fatalf("%s: Delete = %v, %v; want %v", step, ok, err, wasLive)
						}
						delete(model, id)
						delete(inSegment, id)
					}
					check(step)
				}
			}

			if !durable {
				return
			}
			// What was acknowledged under fsync=always survives a crash,
			// tier for tier: the segment is mapped, the WAL tail replays
			// through the same mutation body.
			s.crashForTest()
			s = openDurable(t, opts)
			check("reopened")
		})
	}
}

// checkAgainstModel compares the store with the model document by
// document, and the index with the scan on queries that hit both
// document versions the test writes.
func checkAgainstModel(t *testing.T, step string, s *Store, model map[string]string) {
	t.Helper()
	if got := s.Len(); got != len(model) {
		t.Fatalf("%s: Len = %d, model has %d", step, got, len(model))
	}
	for id, want := range model {
		got, ok := s.Get(id)
		if !ok || got.String() != jsontree.MustParse(want).String() {
			t.Fatalf("%s: Get(%q) = %v, %v; want %s", step, id, got, ok, want)
		}
	}
	for _, q := range []string{`{"tag":"old"}`, `{"tag":"new"}`, `{"n":{"$gte":1}}`} {
		p := engine.MustCompile(engine.LangMongoFind, q)
		want := []string{}
		for id, doc := range model {
			if ok, err := s.Engine().Validate(p, jsontree.MustParse(doc)); err != nil {
				t.Fatal(err)
			} else if ok {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		indexed, usedIndex, err := s.Find(p)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := s.FindScan(p)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(indexed) != fmt.Sprint(want) || fmt.Sprint(scanned) != fmt.Sprint(want) {
			t.Fatalf("%s: %s: index(%v) = %v, scan = %v, model = %v", step, q, usedIndex, indexed, scanned, want)
		}
	}
}

// TestPutTreeAllocsBounded pins the durable write path's allocation
// count: with the WAL frame rendered straight from the tree arena a
// durable PutTree costs the in-memory index insert plus the frame —
// the jsonval.Value detour this replaced cost 44 allocs/op on this
// document (92 on the jsonbench corpus).
func TestPutTreeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := openDurable(t, Options{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: -1})
	defer s.Close()
	tree := jsontree.MustParse(`{"meta":{"tenant":"t07","region":"r3","seq":4711},"tags":["a","b","c"],` +
		`"payload":{"title":"the \"quoted\" title","body":"lorem ipsum dolor sit amet","scores":[1,22,333,4444]},"rare":12}`)
	ids := durableIDs()
	i := 0
	n := measureAllocs(func() {
		i++
		if err := s.PutTree(ids[i%len(ids)], tree); err != nil {
			t.Fatal(err)
		}
	})
	if n > 24 {
		t.Fatalf("durable PutTree allocates %v allocs/op, want ≤ 24", n)
	}
	t.Logf("durable PutTree: %v allocs/op", n)
}

// TestPutRejectsWhatBulkRejects: Put and bulk both parse with
// jsontree.Parse; a document one route refuses must be refused by the
// other, whatever bulk's line handling adds. Invalid UTF-8 used to
// pass Put and be logged as U+FFFD, so the recovered tree differed
// from the one in memory.
func TestPutRejectsWhatBulkRejects(t *testing.T) {
	s := New(Options{Shards: 1})
	for _, doc := range []string{"\"\xff\"", "{\"k\xc3\":1}", strings.Repeat("[", 10_001) + strings.Repeat("]", 10_001)} {
		if err := s.Put("x", doc); err == nil {
			t.Errorf("Put accepted %.20q", doc)
		}
		res, err := s.BulkNDJSON(strings.NewReader(doc + "\n"))
		if err != nil || len(res.Errors) != 1 || len(res.IDs) != 0 {
			t.Errorf("bulk of %.20q = %+v, %v; want one line error", doc, res, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d documents after only refused writes", s.Len())
	}
}
