package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jsonlogic/internal/store"
)

// TestOversizedBodyIs413 pins the bugfix for every body-reading
// route: a request body over the body cap must answer 413 Request
// Entity Too Large, not the 400 the handlers used to map
// http.MaxBytesReader's error to. A small-but-malformed body must
// still answer 400 — the two failure modes are distinguishable again.
func TestOversizedBodyIs413(t *testing.T) {
	h := NewHandler(store.New(store.Options{Shards: 2}), Options{})
	h.s.maxBody = 128 // exercise the cap without 64 MiB uploads
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	// A syntactically valid document comfortably past 128 bytes, so
	// the only possible failure is the size cap.
	big := `{"pad":"` + strings.Repeat("x", 256) + `"}`
	bigLine := big + "\n"
	bigQuery := `{"lang":"mongo","query":"{\"a\":1}","doc":"{\"pad\":\"` + strings.Repeat("y", 256) + `\"}"}`

	routes := []struct {
		name, method, path, body string
	}{
		{"put", "PUT", "/docs/big", big},
		// PUT reads the capped body before parsing it, so the cap
		// wins over a syntax error that comes before it.
		{"put-malformed", "PUT", "/docs/big", "{oops" + big},
		{"bulk", "POST", "/bulk", bigLine},
		{"query", "POST", "/query", bigQuery},
		{"validate", "POST", "/validate", bigQuery},
		{"explain", "POST", "/explain", bigQuery},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			code, body := do(t, rt.method, ts.URL+rt.path, rt.body)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s with oversized body: got %d %v, want 413", rt.method, rt.path, code, body)
			}
		})
	}

	// The cap did not eat the 400s: malformed-but-small bodies keep
	// their status on the same routes.
	for _, rt := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"put-bad", "PUT", "/docs/ok", `{oops`, 400},
		{"bulk-ok", "POST", "/bulk", "{\"a\":1}\n", 200},
		{"query-bad", "POST", "/query", `{oops`, 400},
		{"validate-bad", "POST", "/validate", `{oops`, 400},
		{"explain-bad", "POST", "/explain", `{oops`, 400},
	} {
		t.Run(rt.name, func(t *testing.T) {
			if code, body := do(t, rt.method, ts.URL+rt.path, rt.body); code != rt.want {
				t.Fatalf("%s %s: got %d %v, want %d", rt.method, rt.path, code, body, rt.want)
			}
		})
	}
}

// TestGetDocStreams pins the getDoc response shape on top of the
// streaming encoder: identical bytes to the old String()-based path —
// the compact key-sorted rendering plus one trailing newline — with
// the JSON content type.
func TestGetDocStreams(t *testing.T) {
	ts := httptest.NewServer(NewHandler(store.New(store.Options{Shards: 2}), Options{}))
	t.Cleanup(ts.Close)
	if code, _ := do(t, "PUT", ts.URL+"/docs/d", `{"b":[1,"two",{}],"a":{"nested":"v"}}`); code != 200 {
		t.Fatal("put")
	}
	resp, err := http.Get(ts.URL + "/docs/d")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":{"nested":"v"},"b":[1,"two",{}]}` + "\n"
	if string(raw) != want {
		t.Fatalf("GET body = %q, want %q", raw, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

// TestDeepNestingIs400 pins the bugfix for hostile nesting on every
// route that takes a document: a few megabytes of '[' must answer 400
// — /validate's inline doc used to recurse once per bracket until the
// goroutine stack overflowed, a fatal error that killed the daemon —
// and the server must still be serving afterwards.
func TestDeepNestingIs400(t *testing.T) {
	ts := newTestServer(t)
	deep := strings.Repeat("[", 4_000_000)
	for _, rt := range []struct{ name, method, path, body string }{
		{"validate-deep", "POST", "/validate", `{"lang":"jsl","query":"array","doc":"` + deep + `"}`},
		{"put-deep", "PUT", "/docs/deep", deep},
	} {
		t.Run(rt.name, func(t *testing.T) {
			if code, body := do(t, rt.method, ts.URL+rt.path, rt.body); code != http.StatusBadRequest {
				t.Fatalf("%s %s: got %d %v, want 400", rt.method, rt.path, code, body)
			}
		})
	}
	if code, body := do(t, "POST", ts.URL+"/validate", `{"lang":"jsl","query":"array","doc":"[[1]]"}`); code != 200 || body["valid"] != true {
		t.Fatalf("validate after the hostile requests: %d %v", code, body)
	}
}
