package store

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

// TestConcurrentWritesDuringParallelFind races the parallel query
// fan-out against writers: Put/Delete churn keeps tombstoning and
// compacting the dictionary while multi-worker Find/Select queries
// probe it. Run under -race this is the locking check for the
// dictionary encoding; without -race it still verifies the fan-out's
// merge invariants — results sorted, duplicate-free, and every
// returned ID routed to the shard that produced it.
func TestConcurrentWritesDuringParallelFind(t *testing.T) {
	s := New(Options{Shards: 8})
	s.setQueryWorkers(4)
	plans := []*engine.Plan{
		engine.MustCompile(engine.LangMongoFind, `{"kind":"blue"}`),
		engine.MustCompile(engine.LangMongoFind, `{"kind":"blue","n":{"$lte":100}}`),
		engine.MustCompile(engine.LangJSONPath, `$.tags[*]`),
	}
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("seed%03d", i),
			fmt.Sprintf(`{"kind":"%s","n":%d,"tags":["a","b"]}`, []string{"blue", "red"}[i%2], i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("seed%03d", r.Intn(200))
				if i%3 == 0 {
					s.Delete(id) // tombstone + occasional compaction
				} else {
					s.Put(id, fmt.Sprintf(`{"kind":"blue","n":%d,"tags":["c"]}`, i))
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				p := plans[(g+i)%len(plans)]
				ids, _, err := s.Find(p)
				if err != nil {
					t.Errorf("find: %v", err)
					return
				}
				for j := 1; j < len(ids); j++ {
					if ids[j-1] >= ids[j] {
						t.Errorf("find results unsorted or duplicated: %q then %q", ids[j-1], ids[j])
						return
					}
				}
				sels, _, err := s.Select(p)
				if err != nil {
					t.Errorf("select: %v", err)
					return
				}
				for j := 1; j < len(sels); j++ {
					if sels[j-1].ID >= sels[j].ID {
						t.Errorf("select results unsorted or duplicated: %q then %q", sels[j-1].ID, sels[j].ID)
						return
					}
				}
			}
		}(g)
	}
	// Writers churn for the readers' whole lifetime, then stop.
	readers.Wait()
	close(stop)
	writers.Wait()

	q := s.Stats().Queries
	if q.ParallelQueries == 0 {
		t.Error("no query fanned out in parallel; the worker bound was not honored")
	}
	// Every surviving document must still be exactly findable: index
	// agrees with the dictionary after all the churn.
	p := engine.MustCompile(engine.LangMongoFind, `{"kind":{"$exists":1}}`)
	ids, err := s.FindScan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != s.Len() {
		t.Fatalf("scan found %d docs, store holds %d", len(ids), s.Len())
	}
}

// TestConcurrentMixedLoad hammers one store from 12 goroutines with
// writes, deletes, bulk ingest and both query paths. Run under -race
// it checks the locking discipline; the final verification checks for
// lost updates — every writer's surviving documents must be present
// with exactly the content it wrote last.
func TestConcurrentMixedLoad(t *testing.T) {
	s := New(Options{Shards: 8})
	eng := s.Engine()
	plans := []*engine.Plan{
		engine.MustCompile(engine.LangMongoFind, `{"owner":{"$exists":1}}`),
		engine.MustCompile(engine.LangMongoFind, `{"v":{"$gte":5}}`),
		engine.MustCompile(engine.LangJSONPath, `$.owner`),
		engine.MustCompile(engine.LangJNL, `[/v]`),
	}
	const (
		writers = 6
		readers = 6
		docsPer = 40
		rounds  = 3
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < rounds; round++ {
				for i := 0; i < docsPer; i++ {
					id := fmt.Sprintf("w%d-doc%d", w, i)
					doc := fmt.Sprintf(`{"owner":"w%d","v":%d,"round":%d,"pad":%s}`,
						w, i, round, gen.Document(r, gen.DocOptions{Fanout: 2, Depth: 2, Keys: 6, ArrayBias: 50, ValueRange: 9}))
					if err := s.Put(id, doc); err != nil {
						t.Errorf("put %s: %v", id, err)
						return
					}
				}
				// Delete a deterministic slice of this writer's docs; they
				// are re-inserted next round and the last round leaves them
				// deleted.
				for i := 0; i < docsPer; i += 5 {
					s.Delete(fmt.Sprintf("w%d-doc%d", w, i))
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				p := plans[(g+i)%len(plans)]
				if _, _, err := s.Find(p); err != nil {
					t.Errorf("find: %v", err)
					return
				}
				if _, _, err := s.Select(p); err != nil {
					t.Errorf("select: %v", err)
					return
				}
				if i%10 == 0 {
					var sb strings.Builder
					for j := 0; j < 20; j++ {
						fmt.Fprintf(&sb, `{"bulk":%d,"g":%d}`+"\n", j, g)
					}
					if _, err := s.BulkNDJSON(strings.NewReader(sb.String())); err != nil {
						t.Errorf("bulk: %v", err)
						return
					}
					s.Stats()
					eng.CacheStats()
				}
			}
		}(g)
	}
	wg.Wait()

	// No lost updates: every surviving writer document holds the last
	// round's content, and the deleted slice is gone.
	for w := 0; w < writers; w++ {
		for i := 0; i < docsPer; i++ {
			id := fmt.Sprintf("w%d-doc%d", w, i)
			tr, ok := s.Get(id)
			if i%5 == 0 {
				if ok {
					t.Errorf("%s should have been deleted", id)
				}
				continue
			}
			if !ok {
				t.Errorf("%s lost", id)
				continue
			}
			root := tr.Root()
			if n := tr.ChildByKey(root, "round"); n == jsontree.InvalidNode || tr.NumberVal(n) != rounds-1 {
				t.Errorf("%s holds a stale round", id)
			}
			if n := tr.ChildByKey(root, "owner"); n == jsontree.InvalidNode || tr.StringVal(n) != fmt.Sprintf("w%d", w) {
				t.Errorf("%s has wrong owner", id)
			}
		}
	}
	// The index must agree with the surviving documents: an indexed
	// owner query returns exactly writer w's live docs.
	for w := 0; w < writers; w++ {
		p, err := eng.Compile(engine.LangMongoFind, fmt.Sprintf(`{"owner":"w%d"}`, w))
		if err != nil {
			t.Fatal(err)
		}
		ids, _, err := s.Find(p)
		if err != nil {
			t.Fatal(err)
		}
		want := docsPer - (docsPer+4)/5
		if len(ids) != want {
			t.Errorf("writer %d: find returned %d docs, want %d", w, len(ids), want)
		}
	}
}
