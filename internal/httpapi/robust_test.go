package httpapi

// robust_test.go: the overload and failure surface of the HTTP API —
// admission control (query gate 429s, bulk byte budget), server-side
// query timeouts and their per-request X-Timeout-Ms override, the
// drain switch flipped at shutdown, and the 503 contract of a
// degraded (WAL-failed, read-only) store. Every scenario is made
// deterministic by manipulating the gates and fault injection
// directly rather than racing real traffic.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jsonlogic/internal/store"
)

// doHdr is do plus the response headers, for Retry-After assertions.
func doHdr(t *testing.T, method, url, body string, hdr map[string]string) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header
}

const robustQuery = `{"lang":"mongo","query":"{\"k\":1}"}`

// TestQueryGateSheds429: with one execution slot and no queue, a
// query arriving while the slot is held is shed immediately with 429
// and Retry-After; once the slot frees, queries run again.
func TestQueryGateSheds429(t *testing.T) {
	h := NewHandler(store.New(store.Options{Shards: 2}), Options{})
	h.s.qgate = newGate(1, 0) // no queue: shed as soon as the slot is busy
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	release, err := h.s.qgate.acquire(context.Background())
	if err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	code, hdr := doHdr(t, "POST", ts.URL+"/query", robustQuery, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("query with gate full: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if code, _ := doHdr(t, "POST", ts.URL+"/explain", robustQuery, nil); code != http.StatusTooManyRequests {
		t.Fatalf("explain with gate full: %d, want 429", code)
	}
	if got := h.s.qgate.sheds.Load(); got != 2 {
		t.Fatalf("gate sheds = %d, want 2", got)
	}

	release()
	if code, _ := doHdr(t, "POST", ts.URL+"/query", robustQuery, nil); code != http.StatusOK {
		t.Fatalf("query after release: %d, want 200", code)
	}
}

// TestQueryGateQueues pins the admission queue behind one slot at its
// derived depth of two: queries that find the slot busy wait instead
// of shedding (counted as waits), the third is shed with 429, and
// once the slot frees both waiters run.
func TestQueryGateQueues(t *testing.T) {
	h := NewHandler(store.New(store.Options{Shards: 2}), Options{MaxConcurrentQueries: 1})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	release, err := h.s.qgate.acquire(context.Background())
	if err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	const waiters = 2
	codes := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(robustQuery))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait until both requests are provably parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for h.s.qgate.waits.Load() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d queries queued", h.s.qgate.waits.Load(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	if code, hdr := doHdr(t, "POST", ts.URL+"/query", robustQuery, nil); code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("query with slot and queue full: %d (Retry-After %q), want 429", code, hdr.Get("Retry-After"))
	}
	release()
	for i := 0; i < waiters; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued query: %d, want 200", code)
		}
	}
	if got := h.s.qgate.sheds.Load(); got != 1 {
		t.Fatalf("gate sheds = %d, want 1: only the request past the queue sheds", got)
	}
}

// TestQueryTimeout504: a server-side QueryTimeout that has certainly
// expired maps to 504; the X-Timeout-Ms header loosens it back per
// request (and 0 disables it), while a malformed header is the
// client's 400 before any work happens.
func TestQueryTimeout504(t *testing.T) {
	h := NewHandler(store.New(store.Options{Shards: 2}), Options{
		QueryTimeout: time.Nanosecond, // expired by the first checkpoint, always
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	if code, _ := doHdr(t, "POST", ts.URL+"/query", robustQuery, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("query past server deadline: %d, want 504", code)
	}
	if code, _ := doHdr(t, "POST", ts.URL+"/explain", robustQuery, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("explain past server deadline: %d, want 504", code)
	}
	for _, override := range []string{"10000", "0"} { // loosen; disable
		if code, _ := doHdr(t, "POST", ts.URL+"/query", robustQuery, map[string]string{"X-Timeout-Ms": override}); code != http.StatusOK {
			t.Fatalf("query with X-Timeout-Ms %s: %d, want 200", override, code)
		}
	}
	// The last two overflow time.Duration in milliseconds: one would
	// wrap negative (no timeout), the other to a sub-millisecond one.
	for _, bad := range []string{"bogus", "-5", "1.5", "9223372036855", "18446744073710"} {
		if code, _ := doHdr(t, "POST", ts.URL+"/query", robustQuery, map[string]string{"X-Timeout-Ms": bad}); code != http.StatusBadRequest {
			t.Fatalf("query with X-Timeout-Ms %q: %d, want 400", bad, code)
		}
	}
}

// TestDrainRejects: while draining, everything except the read-only
// introspection endpoints is answered 503 + Retry-After immediately;
// flipping the switch back restores service.
func TestDrainRejects(t *testing.T) {
	h := NewHandler(store.New(store.Options{Shards: 2}), Options{})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	if code, _ := doHdr(t, "PUT", ts.URL+"/docs/a", `{"k":1}`, nil); code != http.StatusOK {
		t.Fatalf("put before drain: %d", code)
	}
	h.SetDraining(true)
	for _, req := range [][3]string{
		{"PUT", "/docs/b", `{"k":2}`},
		{"GET", "/docs/a", ""},
		{"POST", "/query", robustQuery},
		{"POST", "/bulk", `{"k":3}`},
	} {
		code, hdr := doHdr(t, req[0], ts.URL+req[1], req[2], nil)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while draining: %d, want 503", req[0], req[1], code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("%s %s while draining: no Retry-After", req[0], req[1])
		}
	}
	// The endpoints an operator watches the drain with stay up.
	for _, path := range []string{"/metrics", "/stats", "/debug/queries"} {
		if code, _ := doHdr(t, "GET", ts.URL+path, "", nil); code != http.StatusOK {
			t.Fatalf("GET %s while draining: %d, want 200", path, code)
		}
	}
	if got := h.s.drainSheds.Load(); got != 4 {
		t.Fatalf("drain sheds = %d, want 4", got)
	}
	h.SetDraining(false)
	if code, _ := doHdr(t, "PUT", ts.URL+"/docs/c", `{"k":4}`, nil); code != http.StatusOK {
		t.Fatalf("put after drain lifted: %d", code)
	}
}

// TestDegradedWrites503: after a WAL failure trips a shard into
// degraded read-only mode, writes are refused with the retryable 503
// (the first, failing write itself reports the 500 WAL error), reads
// and queries keep serving, and /metrics says degraded.
func TestDegradedWrites503(t *testing.T) {
	fs := store.NewFaultFS(nil)
	st, err := store.Open(store.Options{
		Shards:        1,
		DataDir:       t.TempDir(),
		Fsync:         store.FsyncAlways,
		SnapshotEvery: -1,
		VFS:           fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(NewHandler(st, Options{}))
	t.Cleanup(ts.Close)

	if code, _ := doHdr(t, "PUT", ts.URL+"/docs/a", `{"k":1}`, nil); code != http.StatusOK {
		t.Fatalf("put before fault: %d", code)
	}
	fs.Fail(store.FaultRule{Ops: store.OpWrite | store.OpSync, Path: "wal-", Err: store.ErrNoSpace})

	// The write that hits the fault reports the non-retryable WAL
	// error; it is the one that trips the shard.
	if code, _ := doHdr(t, "PUT", ts.URL+"/docs/b", `{"k":2}`, nil); code != http.StatusInternalServerError {
		t.Fatalf("put hitting fault: %d, want 500", code)
	}
	// Every write after it is gated with the retryable 503.
	code, hdr := doHdr(t, "PUT", ts.URL+"/docs/c", `{"k":3}`, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("put while degraded: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if code, _ := doHdr(t, "DELETE", ts.URL+"/docs/a", "", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("delete while degraded: %d, want 503", code)
	}
	// Reads and queries are unaffected: degraded is read-only, not down.
	if code, _ := doHdr(t, "GET", ts.URL+"/docs/a", "", nil); code != http.StatusOK {
		t.Fatalf("get while degraded: %d, want 200", code)
	}
	if code, _ := doHdr(t, "POST", ts.URL+"/query", robustQuery, nil); code != http.StatusOK {
		t.Fatalf("query while degraded: %d, want 200", code)
	}
	samples, _, _ := scrape(t, ts.URL)
	if samples["jsonstored_degraded"] != 1 || samples["jsonstored_degraded_shards"] != 1 {
		t.Fatalf("degraded gauges = %v/%v, want 1/1",
			samples["jsonstored_degraded"], samples["jsonstored_degraded_shards"])
	}

	// Lift the fault: the background probe heals the shard and writes
	// come back — the 503 really was retryable.
	fs.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := doHdr(t, "PUT", ts.URL+"/docs/c", `{"k":3}`, nil); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never healed after the fault was lifted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	samples, _, _ = scrape(t, ts.URL)
	if samples["jsonstored_degraded"] != 0 {
		t.Fatalf("degraded gauge = %v after heal, want 0", samples["jsonstored_degraded"])
	}
	if samples["jsonstored_wal_heal_total"] < 1 {
		t.Fatalf("wal_heal_total = %v after heal, want >= 1", samples["jsonstored_wal_heal_total"])
	}
}

// TestBulkByteGateSheds429: concurrent bulk-upload bytes beyond
// MaxBulkBytes are shed with 429; an idle gate admits again once the
// in-flight bytes release.
func TestBulkByteGateSheds429(t *testing.T) {
	h := NewHandler(store.New(store.Options{Shards: 2}), Options{MaxBulkBytes: 10})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	release, err := h.s.bulkBytes.acquire(8)
	if err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	body := `{"k":1}` + "\n" + `{"k":2}` + "\n" // 16 bytes: 8+16 > 10
	code, hdr := doHdr(t, "POST", ts.URL+"/bulk", body, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("bulk over byte budget: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("bulk 429 without Retry-After")
	}
	if got := h.s.bulkBytes.sheds.Load(); got != 1 {
		t.Fatalf("bulk sheds = %d, want 1", got)
	}
	release()
	// Oversized relative to the budget, but the gate is idle: admitted
	// (MaxBody bounds it individually), so one big upload cannot
	// deadlock against a tight budget.
	if code, _ := doHdr(t, "POST", ts.URL+"/bulk", body, nil); code != http.StatusOK {
		t.Fatalf("bulk after release: %d, want 200", code)
	}
}
