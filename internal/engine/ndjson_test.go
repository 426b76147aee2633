package engine

import (
	"errors"
	"strings"
	"testing"

	"jsonlogic/internal/jsontree"
)

// Error-path coverage for the NDJSON readers: a malformed document
// mid-stream fails alone, empty input yields an empty result, and a
// reader failing mid-stream (an early-closed connection) returns the
// results of the complete lines alongside the error.

func TestNDJSONMalformedMidStream(t *testing.T) {
	e := New(Options{})
	e.workers = 2
	p := MustCompile(LangJNL, `[/k]`)
	input := "{\"k\":1}\n{\"k\":oops}\n\n{\"k\":2}\n{\n"
	results, err := e.EvalReader(p, strings.NewReader(input))
	if err != nil {
		t.Fatalf("reader error for per-line failures: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4 (blank line skipped)", len(results))
	}
	// Results are index-sorted; lines 1 and 4 succeed, 2 and 5 fail.
	wantLines := []int{1, 2, 4, 5}
	wantErr := []bool{false, true, false, true}
	for i, res := range results {
		if res.Line != wantLines[i] {
			t.Errorf("result %d from line %d, want %d", i, res.Line, wantLines[i])
		}
		if (res.Err != nil) != wantErr[i] {
			t.Errorf("result %d: err = %v, want failure=%v", i, res.Err, wantErr[i])
		}
		if res.Err != nil && (res.Tree != nil || res.Nodes != nil) {
			t.Errorf("result %d: failed line carries partial results", i)
		}
		if res.Err == nil && len(res.Nodes) != 1 {
			t.Errorf("result %d: selected %d nodes, want 1", i, len(res.Nodes))
		}
	}

	// ValidateReader mirrors the contract.
	vresults, err := e.ValidateReader(p, strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(vresults) != 4 {
		t.Fatalf("validate got %d results, want 4", len(vresults))
	}
	for i, res := range vresults {
		if (res.Err != nil) != wantErr[i] {
			t.Errorf("validate result %d: err = %v, want failure=%v", i, res.Err, wantErr[i])
		}
		if res.Err == nil && !res.Valid {
			t.Errorf("validate result %d: want valid", i)
		}
	}
}

// TestNDJSONNonJSONSpace: a line is trimmed of JSON whitespace only.
// Vertical tab, form feed, NBSP and NEL are not JSON whitespace, so
// each line carrying one fails alone, exactly as BuildTree rejects
// the same text.
func TestNDJSONNonJSONSpace(t *testing.T) {
	e := New(Options{})
	p := MustCompile(LangJSONPath, `$.a`)
	bad := []string{"\v{\"a\":1}", "{\"a\":1}\f", "\u00a0{\"a\":1}", "{\"a\":1}\u0085"}
	input := " \t{\"a\":1}\r\n" + strings.Join(bad, "\n") + "\n"
	for _, validate := range []bool{false, true} {
		run := e.EvalReader
		if validate {
			run = e.ValidateReader
		}
		results, err := run(p, strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1+len(bad) {
			t.Fatalf("validate=%v: got %d results, want %d", validate, len(results), 1+len(bad))
		}
		if results[0].Err != nil {
			t.Errorf("validate=%v: JSON-whitespace-padded line failed: %v", validate, results[0].Err)
		}
		for i, res := range results[1:] {
			if res.Err == nil {
				t.Errorf("validate=%v: line %q accepted", validate, bad[i])
			}
			if _, err := BuildTree(strings.NewReader(bad[i]), jsontree.NewBuilder()); err == nil {
				t.Errorf("BuildTree accepts %q", bad[i])
			}
		}
	}
}

func TestNDJSONEmptyInput(t *testing.T) {
	e := New(Options{})
	p := MustCompile(LangJSONPath, `$.k`)
	for _, input := range []string{"", "\n\n\n", "   \n\t\n"} {
		results, err := e.EvalReader(p, strings.NewReader(input))
		if err != nil {
			t.Fatalf("input %q: %v", input, err)
		}
		if len(results) != 0 {
			t.Fatalf("input %q: got %d results, want 0", input, len(results))
		}
	}
}

// failingReader yields its payload, then fails with a non-EOF error —
// the shape of a peer closing a connection mid-upload.
type failingReader struct {
	data string
	err  error
	off  int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestNDJSONEarlyClose(t *testing.T) {
	e := New(Options{})
	e.workers = 2
	p := MustCompile(LangMongoFind, `{"k":{"$gte":1}}`)
	boom := errors.New("connection reset")
	// Two complete lines, then a third cut off by the failure. The
	// scanner flushes the truncated tail as a final token, so it
	// surfaces as a per-line parse error — callers can tell exactly
	// which documents were fully processed — and the reader's own error
	// is returned alongside.
	r := &failingReader{data: "{\"k\":1}\n{\"k\":2}\n{\"k\":", err: boom}
	results, err := e.ValidateReader(p, r)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reader's error", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 2 complete + 1 truncated", len(results))
	}
	for i, res := range results[:2] {
		if res.Err != nil || !res.Valid {
			t.Errorf("result %d: err=%v valid=%v, want clean valid", i, res.Err, res.Valid)
		}
	}
	if results[2].Err == nil {
		t.Error("the truncated line must carry a parse error")
	}

	// Failure before any complete line: the lone truncated token fails,
	// and the error still propagates.
	results, err = e.EvalReader(p, &failingReader{data: "{\"k\"", err: boom})
	if !errors.Is(err, boom) || len(results) != 1 || results[0].Err == nil {
		t.Fatalf("partial-only stream: results=%+v err=%v", results, err)
	}
}
