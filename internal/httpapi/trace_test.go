package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"jsonlogic/internal/store"
	"jsonlogic/internal/trace"
)

// newTracedServer builds a handler whose tracer keeps every query as
// slow (threshold 0), so every query takes the full trace-capture
// path: recorder, ring and slow-query log.
func newTracedServer(t *testing.T) (*httptest.Server, *trace.Tracer) {
	t.Helper()
	tc := trace.New(trace.Options{SlowQuery: 0})
	ts := httptest.NewServer(NewHandler(store.New(store.Options{Shards: 8}), Options{Tracer: tc}))
	t.Cleanup(ts.Close)
	return ts, tc
}

// TestSlowQueryEndToEnd drives a real indexed query through the full
// handler with the slow threshold at 0 and asserts the trace comes
// back out of GET /debug/queries: newest first, carrying the query
// source, the request id, and non-zero spans for the planner, probe
// and eval stages.
func TestSlowQueryEndToEnd(t *testing.T) {
	ts, _ := newTracedServer(t)
	for i := 0; i < 200; i++ {
		if code, _ := do(t, "PUT", fmt.Sprintf("%s/docs/d%04d", ts.URL, i), fmt.Sprintf(`{"group":%d,"flag":%d}`, i%10, i%2)); code != 200 {
			t.Fatalf("put d%04d failed", i)
		}
	}

	req, err := http.NewRequest("POST", ts.URL+"/query",
		strings.NewReader(`{"lang":"mongo","query":"{\"group\":3,\"flag\":1}"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "load-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/query: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "load-42" {
		t.Fatalf("X-Request-ID not echoed: %q", got)
	}

	code, body := do(t, "GET", ts.URL+"/debug/queries", "")
	if code != 200 {
		t.Fatalf("/debug/queries: %d", code)
	}
	queries, ok := body["queries"].([]any)
	if !ok || len(queries) == 0 {
		t.Fatalf("/debug/queries returned no traces: %v", body)
	}
	// Newest first: entry 0 is the query just sent.
	top := queries[0].(map[string]any)
	if top["trigger"] != "slow" {
		t.Fatalf("trigger = %v, want slow", top["trigger"])
	}
	if top["request_id"] != "load-42" || top["lang"] != "mongo" {
		t.Fatalf("trace identity wrong: %v", top)
	}
	if !strings.Contains(top["query"].(string), `"group":3`) {
		t.Fatalf("trace lost the query source: %v", top["query"])
	}
	if top["duration_ns"].(float64) <= 0 {
		t.Fatalf("trace duration %v, want > 0", top["duration_ns"])
	}

	// The span tree must contain non-zero planner, probe and eval
	// stages under the request root, and the plan span must carry the
	// planner's verdict.
	spans := top["spans"].([]any)
	if len(spans) != 1 {
		t.Fatalf("want one root span, got %d", len(spans))
	}
	root := spans[0].(map[string]any)
	if root["name"] != "request" {
		t.Fatalf("root span = %v", root["name"])
	}
	stages := map[string]float64{}
	attrs := map[string]map[string]any{}
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		name := n["name"].(string)
		stages[name] += n["duration_ns"].(float64)
		if a, ok := n["attrs"].(map[string]any); ok && attrs[name] == nil {
			attrs[name] = a
		}
		for _, c := range childSpans(n) {
			walk(c)
		}
	}
	walk(root)
	for _, stage := range []string{"compile", "plan", "probe", "eval", "merge"} {
		if stages[stage] <= 0 {
			t.Errorf("stage %q duration = %v, want > 0", stage, stages[stage])
		}
	}
	if t.Failed() {
		t.Fatalf("spans: %v", top["spans"])
	}
	if attrs["plan"]["access"] != "index" || attrs["plan"]["exact"] != "true" {
		t.Fatalf("plan span access = %v exact = %v, want an exact index find", attrs["plan"]["access"], attrs["plan"]["exact"])
	}
	if attrs["probe"]["lists"] == nil || attrs["probe"]["steps"] == nil || attrs["probe"]["verified"] == nil {
		t.Fatalf("probe span missing list/step/check attrs: %v", attrs["probe"])
	}
	if attrs["eval"]["docs"] == nil {
		t.Fatalf("eval span missing docs attr: %v", attrs["eval"])
	}

	// The slow query is visible in /metrics too.
	samples, _, _ := scrape(t, ts.URL)
	if samples["jsonstored_slow_queries_total"] < 1 {
		t.Fatalf("slow_queries_total = %v, want >= 1", samples["jsonstored_slow_queries_total"])
	}
	if samples["jsonstored_trace_ring_entries"] < 1 {
		t.Fatalf("trace_ring_entries = %v, want >= 1", samples["jsonstored_trace_ring_entries"])
	}
}

// TestTracingUnderConcurrentLoad drives the handler with every query
// traced (threshold 0) while four clients interleave writes, reads,
// bulk loads and queries: every reply is 2xx and echoes its request
// id, the ring stays bounded and holds only ids that were sent, and
// every query armed a trace recorder.
func TestTracingUnderConcurrentLoad(t *testing.T) {
	ts, _ := newTracedServer(t)
	const clients, rounds = 4, 40
	type req struct{ method, path, body string }
	var (
		mu   sync.Mutex
		sent = map[string]bool{}
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				doc := fmt.Sprintf("c%d-%d", c, i%8)
				for j, r := range []req{
					{"PUT", "/docs/" + doc, fmt.Sprintf(`{"group":%d,"seq":%d}`, c, i)},
					{"GET", "/docs/" + doc, ""},
					{"POST", "/bulk", fmt.Sprintf("{\"group\":%d}\n{\"group\":%d}\n", c, i)},
					{"POST", "/query", fmt.Sprintf(`{"lang":"mongo","query":"{\"group\":%d}"}`, c)},
				} {
					id := fmt.Sprintf("c%d-r%d-%d", c, i, j)
					mu.Lock()
					sent[id] = true
					mu.Unlock()
					hr, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(r.body))
					if err != nil {
						t.Error(err)
						return
					}
					hr.Header.Set("X-Request-ID", id)
					resp, err := http.DefaultClient.Do(hr)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode/100 != 2 {
						t.Errorf("%s %s (%s): %d", r.method, r.path, id, resp.StatusCode)
					}
					if got := resp.Header.Get("X-Request-ID"); got != id {
						t.Errorf("%s %s: X-Request-ID %q, want %q", r.method, r.path, got, id)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	code, body := do(t, "GET", ts.URL+"/debug/queries", "")
	if code != 200 {
		t.Fatalf("/debug/queries: %d", code)
	}
	queries := body["queries"].([]any)
	if len(queries) == 0 || len(queries) > trace.DefaultRingSize {
		t.Fatalf("ring holds %d traces, want 1..%d", len(queries), trace.DefaultRingSize)
	}
	for _, q := range queries {
		if id, _ := q.(map[string]any)["request_id"].(string); !sent[id] {
			t.Fatalf("ring entry has request_id %q, which no client sent", id)
		}
	}
	samples, _, _ := scrape(t, ts.URL)
	if got := samples["jsonstored_traces_started_total"]; got < clients*rounds {
		t.Fatalf("traces_started_total = %v, want >= %d queries sent", got, clients*rounds)
	}
}

func childSpans(n map[string]any) []map[string]any {
	raw, ok := n["children"].([]any)
	if !ok {
		return nil
	}
	out := make([]map[string]any, len(raw))
	for i, c := range raw {
		out[i] = c.(map[string]any)
	}
	return out
}

// TestDebugQueriesLimitAndEmpty: ?n= caps the response, and a handler
// without a tracer serves an empty list rather than failing.
func TestDebugQueriesLimitAndEmpty(t *testing.T) {
	ts, _ := newTracedServer(t)
	for i := 0; i < 5; i++ {
		do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"a\":1}"}`)
	}
	code, body := do(t, "GET", ts.URL+"/debug/queries?n=2", "")
	if code != 200 || body["count"].(float64) != 2 {
		t.Fatalf("limited ring: code %d, body %v", code, body)
	}
	if code, body := do(t, "GET", ts.URL+"/debug/queries?n=bogus", ""); code != 400 {
		t.Fatalf("bad n: code %d, body %v", code, body)
	}

	plain := newTestServer(t) // no tracer
	code, body = do(t, "GET", plain.URL+"/debug/queries", "")
	if code != 200 || body["count"].(float64) != 0 {
		t.Fatalf("untraced ring: code %d, body %v", code, body)
	}
	if _, ok := body["queries"].([]any); !ok {
		t.Fatalf("queries not a list: %v", body["queries"])
	}
}

// TestSampledTraceCapture: sampling without slow detection keeps
// exactly 1 in N queries, with trigger "sample".
func TestSampledTraceCapture(t *testing.T) {
	tc := trace.New(trace.Options{SampleEvery: 3, SlowQuery: -1})
	ts := httptest.NewServer(NewHandler(store.New(store.Options{Shards: 2}), Options{Tracer: tc}))
	t.Cleanup(ts.Close)
	for i := 0; i < 9; i++ {
		if code, _ := do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"a\":1}"}`); code != 200 {
			t.Fatalf("query %d failed", i)
		}
	}
	_, body := do(t, "GET", ts.URL+"/debug/queries", "")
	if body["count"].(float64) != 3 {
		t.Fatalf("sampled 9 queries at 1-in-3, ring has %v", body["count"])
	}
	for _, q := range body["queries"].([]any) {
		if q.(map[string]any)["trigger"] != "sample" {
			t.Fatalf("trigger = %v, want sample", q.(map[string]any)["trigger"])
		}
	}
	if st := tc.Stats(); st.Slow != 0 || st.Sampled != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestExplainCarriesTrace: /explain output now embeds the recorded
// span tree of its own execution.
func TestExplainCarriesTrace(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/a", `{"k":1}`)
	code, body := do(t, "POST", ts.URL+"/explain", `{"lang":"mongo","query":"{\"k\":1}"}`)
	if code != 200 {
		t.Fatalf("/explain: %d: %v", code, body)
	}
	spans, ok := body["trace"].([]any)
	if !ok || len(spans) != 1 {
		t.Fatalf("explain trace missing: %v", body["trace"])
	}
	root := spans[0].(map[string]any)
	if root["name"] != "explain" || root["duration_ns"].(float64) <= 0 {
		t.Fatalf("explain root span = %v", root)
	}
	names := map[string]bool{}
	for _, c := range childSpans(root) {
		names[c["name"].(string)] = true
	}
	if !names["plan"] || !names["eval"] || !names["merge"] {
		t.Fatalf("explain trace missing pipeline stages: %v", names)
	}
}

// TestExactFindTraced drives an exact find over a reopened store, whose
// documents all live in the segment tier: the plan span says exact, the
// probe spans count the segment candidates the text check verified
// (every hit) and their posting-list lengths include the segment tier,
// and /explain reports exact for it and not for a range query.
func TestExactFindTraced(t *testing.T) {
	opts := store.Options{Shards: 4, DataDir: t.TempDir(), Fsync: store.FsyncOff, SnapshotEvery: -1}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := st.Put(fmt.Sprintf("d%04d", i), fmt.Sprintf(`{"meta":{"tenant":"t%d"},"n":%d}`, i%10, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(NewHandler(st, Options{Tracer: trace.New(trace.Options{SlowQuery: 0})}))
	t.Cleanup(ts.Close)

	query := `{"lang":"mongo","query":"{\"meta.tenant\":\"t3\"}"}`
	if code, body := do(t, "POST", ts.URL+"/query", query); code != 200 || body["count"].(float64) != 20 {
		t.Fatalf("/query: %d %v", code, body)
	}
	code, body := do(t, "GET", ts.URL+"/debug/queries?n=1", "")
	if code != 200 {
		t.Fatalf("/debug/queries: %d", code)
	}
	var exact any
	var verified, rejected float64
	var lists []string
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		a, _ := n["attrs"].(map[string]any)
		switch n["name"] {
		case "plan":
			exact = a["exact"]
		case "eval":
			if a["docs"].(float64) != 0 {
				t.Errorf("eval span evaluated %v documents; the exact find matched them all on their text", a["docs"])
			}
		case "probe":
			verified += a["verified"].(float64)
			rejected += a["rejected"].(float64)
			lists = append(lists, a["lists"].(string))
		}
		for _, c := range childSpans(n) {
			walk(c)
		}
	}
	walk(body["queries"].([]any)[0].(map[string]any)["spans"].([]any)[0].(map[string]any))
	if exact != "true" || verified != 20 || rejected != 0 {
		t.Fatalf("exact = %v, verified = %v, rejected = %v; want true, 20, 0", exact, verified, rejected)
	}
	for _, l := range lists {
		for _, n := range strings.Split(l, ",") {
			if n == "0" {
				t.Fatalf("probe lists %v miss the segment tier's postings", lists)
			}
		}
	}

	code, body = do(t, "POST", ts.URL+"/explain", query)
	if code != 200 || body["exact"] != true || body["access"] != "index" || body["actual_results"].(float64) != 20 {
		t.Fatalf("explain of an exact find: %d %v", code, body)
	}
	code, body = do(t, "POST", ts.URL+"/explain", `{"lang":"mongo","query":"{\"meta.tenant\":\"t3\",\"n\":{\"$gte\":50}}"}`)
	if code != 200 || body["exact"] != false || body["access"] != "index" || body["actual_results"].(float64) != 15 {
		t.Fatalf("explain of a range find: %d %v", code, body)
	}
}
