package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"jsonlogic/internal/store"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(store.New(store.Options{Shards: 8}), Options{}))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, url, raw)
		}
	}
	return resp.StatusCode, decoded
}

func TestCRUDAndQuery(t *testing.T) {
	ts := newTestServer(t)

	if code, body := do(t, "PUT", ts.URL+"/docs/u1", `{"name":"sue","age":34}`); code != 200 || body["nodes"].(float64) != 3 {
		t.Fatalf("put: %d %v", code, body)
	}
	if code, _ := do(t, "PUT", ts.URL+"/docs/u2", `{"name":"bob","age":17}`); code != 200 {
		t.Fatal("put u2")
	}
	// An ageless document keeps the age terms selective, so the
	// cost-based planner picks the index for the find below.
	if code, _ := do(t, "PUT", ts.URL+"/docs/g1", `{"group":"admins"}`); code != 200 {
		t.Fatal("put g1")
	}
	if code, body := do(t, "PUT", ts.URL+"/docs/bad", `{oops`); code != 400 || body["error"] == "" {
		t.Fatalf("bad put accepted: %d %v", code, body)
	}
	if code, body := do(t, "GET", ts.URL+"/docs/u1", ""); code != 200 || body["name"] != "sue" {
		t.Fatalf("get u1: %d %v", code, body)
	}
	if code, _ := do(t, "GET", ts.URL+"/docs/nope", ""); code != 404 {
		t.Fatal("missing doc should 404")
	}

	code, body := do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"age\":{\"$gte\":21}}"}`)
	if code != 200 || body["count"].(float64) != 1 {
		t.Fatalf("query: %d %v", code, body)
	}
	if ids := body["ids"].([]any); ids[0] != "u1" {
		t.Fatalf("query ids = %v", ids)
	}
	if body["indexed"] != true {
		t.Fatalf("equality+order filter should be indexed: %v", body)
	}

	code, body = do(t, "POST", ts.URL+"/query", `{"lang":"jsonpath","query":"$.name","mode":"select","values":true}`)
	if code != 200 || body["count"].(float64) != 2 {
		t.Fatalf("select: %d %v", code, body)
	}
	results := body["results"].([]any)
	first := results[0].(map[string]any)
	if first["id"] != "u1" || first["values"].([]any)[0] != `"sue"` {
		t.Fatalf("select results = %v", results)
	}

	if code, body = do(t, "POST", ts.URL+"/validate", `{"lang":"jsl","query":"some(\"age\", min(21))","id":"u2"}`); code != 200 || body["valid"] != false {
		t.Fatalf("validate: %d %v", code, body)
	}
	if code, body = do(t, "POST", ts.URL+"/validate", `{"lang":"jsl","query":"some(\"age\", min(21))","doc":"{\"age\":50}"}`); code != 200 || body["valid"] != true {
		t.Fatalf("validate inline: %d %v", code, body)
	}
	if code, _ = do(t, "POST", ts.URL+"/validate", `{"lang":"mongo","query":"{\"a\":1}","id":"nope"}`); code != 404 {
		t.Fatal("validate of a missing id should 404")
	}
	if code, _ = do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{oops"}`); code != 400 {
		t.Fatal("bad query should 400")
	}
	if code, _ = do(t, "POST", ts.URL+"/query", `{"lang":"sparql","query":"x"}`); code != 400 {
		t.Fatal("unknown language should 400")
	}

	if code, _ := do(t, "DELETE", ts.URL+"/docs/u1", ""); code != 200 {
		t.Fatal("delete u1")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/docs/u1", ""); code != 404 {
		t.Fatal("double delete should 404")
	}
}

func TestBulkAndStats(t *testing.T) {
	ts := newTestServer(t)
	ndjson := "{\"k\":1}\n{nope\n{\"k\":2}\n"
	code, body := do(t, "POST", ts.URL+"/bulk", ndjson)
	if code != 200 || body["inserted"].(float64) != 2 {
		t.Fatalf("bulk: %d %v", code, body)
	}
	if errs := body["errors"].([]any); len(errs) != 1 {
		t.Fatalf("bulk errors = %v", errs)
	}

	// Warm the plan cache and both query paths.
	for i := 0; i < 3; i++ {
		do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"k\":2}"}`)
		do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"k\":{\"$ne\":2}}"}`)
	}
	code, body = do(t, "GET", ts.URL+"/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	st := body["store"].(map[string]any)
	if st["docs"].(float64) != 2 || st["index_terms"].(float64) == 0 {
		t.Fatalf("store stats = %v", st)
	}
	q := st["queries"].(map[string]any)
	if q["find_indexed"].(float64) != 3 || q["find_scan"].(float64) != 3 {
		t.Fatalf("query counters = %v", q)
	}
	// Fan-out accounting: every query ran either serially or in
	// parallel, and the indexed ones did real intersection work.
	if q["serial_queries"].(float64)+q["parallel_queries"].(float64) != 6 {
		t.Fatalf("fan-out counters do not cover all queries: %v", q)
	}
	// With a single kept term there is no merge, so the step counter is
	// legitimately zero here — assert only that it is exposed.
	if _, ok := q["intersection_steps"]; !ok {
		t.Fatalf("stats missing intersection_steps: %v", q)
	}
	pc := body["plan_cache"].(map[string]any)
	if pc["hits"].(float64) != 4 || pc["misses"].(float64) != 2 {
		t.Fatalf("plan cache = %v", pc)
	}
	if pc["hit_rate"].(float64) < 0.6 {
		t.Fatalf("hit rate = %v", pc["hit_rate"])
	}
}

// TestConcurrentMixedHTTPLoad drives the daemon from 12 goroutines with
// mixed reads, writes, bulk ingest and queries, then verifies no update
// was lost: every writer's documents are retrievable with the content
// written last.
func TestConcurrentMixedHTTPLoad(t *testing.T) {
	ts := newTestServer(t)
	const (
		writers  = 8
		queriers = 4
		docsPer  = 25
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers+queriers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := 0; i < docsPer; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					doc := fmt.Sprintf(`{"owner":%d,"i":%d,"round":%d}`, w, i, round)
					code, _ := do(t, "PUT", ts.URL+"/docs/"+id, doc)
					if code != 200 {
						errc <- fmt.Errorf("put %s: %d", id, code)
						return
					}
				}
			}
			// Bulk a few extra docs per writer.
			var sb strings.Builder
			for i := 0; i < 5; i++ {
				fmt.Fprintf(&sb, `{"bulk":%d}`+"\n", w)
			}
			if code, _ := do(t, "POST", ts.URL+"/bulk", sb.String()); code != 200 {
				errc <- fmt.Errorf("bulk writer %d: %d", w, code)
			}
		}(w)
	}
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := fmt.Sprintf(`{"lang":"mongo","query":"{\"owner\":%d}"}`, i%writers)
				if code, _ := do(t, "POST", ts.URL+"/query", q); code != 200 {
					errc <- fmt.Errorf("query: %d", code)
					return
				}
				if i%8 == 0 {
					if code, _ := do(t, "GET", ts.URL+"/stats", ""); code != 200 {
						errc <- fmt.Errorf("stats: %d", code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for w := 0; w < writers; w++ {
		// Every document holds round=1 (the last write wins cleanly).
		q := fmt.Sprintf(`{"lang":"mongo","query":"{\"owner\":%d,\"round\":1}"}`, w)
		code, body := do(t, "POST", ts.URL+"/query", q)
		if code != 200 || body["count"].(float64) != docsPer {
			t.Fatalf("writer %d: %d %v, want %d docs", w, code, body, docsPer)
		}
		for i := 0; i < docsPer; i++ {
			code, body := do(t, "GET", fmt.Sprintf("%s/docs/w%d-%d", ts.URL, w, i), "")
			if code != 200 || body["round"].(float64) != 1 {
				t.Fatalf("w%d-%d: %d %v", w, i, code, body)
			}
		}
	}
	// 8 writers × (25 docs + 5 bulk) documents in total.
	code, body := do(t, "GET", ts.URL+"/stats", "")
	if code != 200 {
		t.Fatal("stats")
	}
	if docs := body["store"].(map[string]any)["docs"].(float64); docs != writers*(docsPer+5) {
		t.Fatalf("stats docs = %v, want %d", docs, writers*(docsPer+5))
	}
}

// TestDurableDaemonRestart drives the handler over a durable store,
// simulates a restart by closing and reopening the data directory,
// and requires the new handler to serve exactly the acknowledged
// state — including the durability section of /stats.
func TestDurableDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Shards: 4, DataDir: dir, Fsync: store.FsyncAlways, SnapshotEvery: -1}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(st, Options{}))
	if code, _ := do(t, "PUT", ts.URL+"/docs/u1", `{"name":"sue","age":34}`); code != 200 {
		t.Fatal("put u1")
	}
	if code, _ := do(t, "PUT", ts.URL+"/docs/u2", `{"name":"bob","age":17}`); code != 200 {
		t.Fatal("put u2")
	}
	if code, _ := do(t, "POST", ts.URL+"/bulk", "{\"k\":1}\n{\"k\":2}\n"); code != 200 {
		t.Fatal("bulk")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/docs/u2", ""); code != 200 {
		t.Fatal("delete u2")
	}
	code, body := do(t, "GET", ts.URL+"/stats", "")
	if code != 200 {
		t.Fatal("stats")
	}
	dur := body["store"].(map[string]any)["durability"].(map[string]any)
	if dur["fsync"] != "always" || dur["wal_appends"].(float64) != 5 {
		t.Fatalf("durability stats = %v", dur)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := httptest.NewServer(NewHandler(st2, Options{}))
	t.Cleanup(ts2.Close)
	if code, body := do(t, "GET", ts2.URL+"/docs/u1", ""); code != 200 || body["name"] != "sue" {
		t.Fatalf("u1 after restart: %d %v", code, body)
	}
	if code, _ := do(t, "GET", ts2.URL+"/docs/u2", ""); code != 404 {
		t.Fatal("deleted u2 resurrected by restart")
	}
	code, body = do(t, "POST", ts2.URL+"/query", `{"lang":"mongo","query":"{\"k\":{\"$gte\":1}}"}`)
	if code != 200 || body["count"].(float64) != 2 {
		t.Fatalf("bulk docs after restart: %d %v", code, body)
	}
	code, body = do(t, "GET", ts2.URL+"/stats", "")
	if code != 200 {
		t.Fatal("stats after restart")
	}
	rec := body["store"].(map[string]any)["durability"].(map[string]any)["recovery"].(map[string]any)
	if rec["wal_records_replayed"].(float64) != 5 {
		t.Fatalf("recovery stats after restart = %v", rec)
	}
}

// TestIndexedFlagTruthful pins the /query "indexed" field to the
// store's actual decision: a deep JSONPath plan on a shallow index
// bound degrades to prefix-presence pruning (still indexed, results
// intact), while a factless plan (negation) reports the scan.
func TestIndexedFlagTruthful(t *testing.T) {
	st := store.New(store.Options{Shards: 2, MaxIndexDepth: 2})
	ts := httptest.NewServer(NewHandler(st, Options{}))
	t.Cleanup(ts.Close)
	if code, _ := do(t, "PUT", ts.URL+"/docs/x", `{"a":{"b":{"c":{"d":1}}}}`); code != 200 {
		t.Fatal("put")
	}
	// A second document without the path keeps the prefix term
	// selective; on a one-document store the planner would rightly
	// scan everything.
	if code, _ := do(t, "PUT", ts.URL+"/docs/y", `{"z":1}`); code != 200 {
		t.Fatal("put y")
	}
	code, body := do(t, "POST", ts.URL+"/query", `{"lang":"jsonpath","query":"$.a.b.c.d","mode":"select"}`)
	if code != 200 || body["indexed"] != true || body["count"].(float64) != 1 {
		t.Fatalf("deep select: %d %v", code, body)
	}
	code, body = do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"a\":{\"$exists\":0}}"}`)
	if code != 200 || body["indexed"] != false || body["count"].(float64) != 1 {
		t.Fatalf("factless find must report the scan: %d %v", code, body)
	}
	code, body = do(t, "POST", ts.URL+"/query", `{"lang":"jsonpath","query":"$.a.b"}`)
	if code != 200 || body["indexed"] != true || body["count"].(float64) != 1 {
		t.Fatalf("shallow find: %d %v", code, body)
	}
}

// TestExplain drives POST /explain end to end: the response must carry
// the logical and physical plan trees, the planner's access decision
// with per-term statistics, and an estimated cardinality that bounds
// the measured one.
func TestExplain(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 8; i++ {
		doc := fmt.Sprintf(`{"kind":"widget","n":%d}`, i)
		if i%4 == 0 {
			doc = fmt.Sprintf(`{"kind":"gadget","n":%d}`, i)
		}
		if code, _ := do(t, "PUT", fmt.Sprintf("%s/docs/d%d", ts.URL, i), doc); code != 200 {
			t.Fatalf("put d%d", i)
		}
	}

	code, body := do(t, "POST", ts.URL+"/explain", `{"lang":"mongo","query":"{\"kind\":\"gadget\"}"}`)
	if code != 200 {
		t.Fatalf("explain: %d %v", code, body)
	}
	if body["access"] != "index" || body["exact"] != true {
		t.Fatalf("selective equality should be an exact indexed find: %v", body)
	}
	plan := body["plan"].(map[string]any)
	for _, key := range []string{"logical", "physical"} {
		if s, _ := plan[key].(string); s == "" {
			t.Fatalf("explain plan missing %s tree: %v", key, plan)
		}
	}
	est := body["est_candidates"].(float64)
	actual := body["actual_candidates"].(float64)
	if est < actual {
		t.Fatalf("estimated candidates %v below actual %v", est, actual)
	}
	if body["actual_results"].(float64) != 2 {
		t.Fatalf("explain results: %v", body)
	}
	if terms := body["terms"].([]any); len(terms) == 0 {
		t.Fatalf("explain must list index terms: %v", body)
	}

	// A factless plan explains the scan.
	code, body = do(t, "POST", ts.URL+"/explain", `{"lang":"mongo","query":"{\"kind\":{\"$ne\":1}}"}`)
	if code != 200 || body["access"] != "scan" || body["exact"] != false {
		t.Fatalf("negation should explain an inexact scan: %d %v", code, body)
	}
	if body["actual_candidates"].(float64) != 8 {
		t.Fatalf("scan candidates: %v", body)
	}

	// Select mode goes through the select facts.
	code, body = do(t, "POST", ts.URL+"/explain", `{"lang":"jsonpath","query":"$.kind","mode":"select"}`)
	if code != 200 || body["mode"] != "select" {
		t.Fatalf("select explain: %d %v", code, body)
	}

	if code, _ = do(t, "POST", ts.URL+"/explain", `{"lang":"mongo","query":"{}","mode":"weird"}`); code != 400 {
		t.Fatal("unknown explain mode should 400")
	}
	if code, _ = do(t, "POST", ts.URL+"/explain", `{"lang":"mongo","query":"{oops"}`); code != 400 {
		t.Fatal("bad explain query should 400")
	}
}
