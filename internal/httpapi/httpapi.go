// Package httpapi implements jsonstored's HTTP surface: the document
// CRUD, bulk-ingest, query/explain/validate and introspection
// endpoints over one internal/store.Store. It lives below cmd so an
// in-process daemon can be assembled anywhere an http.Handler fits —
// the tests drive exactly the handler the real daemon serves, httptest
// instead of a socket.
//
// Every route is wrapped in the metrics middleware; GET /metrics
// exposes the store's query/planner/durability counters, the
// engine's plan-cache statistics and the per-endpoint request-latency
// histograms in Prometheus text exposition format.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/metrics"
	"jsonlogic/internal/store"
	"jsonlogic/internal/trace"
)

// DefaultMaxBody bounds one request body (64 MiB; covers bulk
// uploads). Oversized bodies fail with 413, never truncate silently.
const DefaultMaxBody = 64 << 20

// Options configure the handler. The zero value is the production
// configuration.
type Options struct {
	// Tracer arms per-query traces on POST /query and feeds the
	// slow-query ring GET /debug/queries serves. nil disables tracing
	// entirely (the endpoint then reports an empty ring).
	Tracer *trace.Tracer
	// QueryTimeout bounds each /query and /explain execution; a
	// request can tighten or loosen it per call with an X-Timeout-Ms
	// header. Zero means no server-side timeout.
	QueryTimeout time.Duration
	// MaxConcurrentQueries bounds in-flight /query and /explain
	// executions; excess requests wait in a queue of twice that depth
	// and are shed with 429 once it fills. Zero disables admission
	// control.
	MaxConcurrentQueries int
	// MaxBulkBytes bounds the total Content-Length of concurrently
	// admitted /bulk uploads; excess uploads are shed with 429. Zero
	// disables the bound (each body is still individually capped by
	// DefaultMaxBody).
	MaxBulkBytes int64
}

// server routes the HTTP API onto one Store and its Engine.
type server struct {
	store        *store.Store
	eng          *engine.Engine
	maxBody      int64 // DefaultMaxBody; tests shrink it
	tracer       *trace.Tracer
	http         *metrics.HTTPMetrics
	runtime      *metrics.RuntimeMetrics
	queryTimeout time.Duration
	qgate        *gate
	bulkBytes    *byteGate
	draining     atomic.Bool
	drainSheds   atomic.Uint64
}

// Handler is the daemon's HTTP handler: the routed API plus the
// drain switch the daemon flips when shutdown begins.
type Handler struct {
	http.Handler
	s *server
}

// SetDraining flips drain mode: while draining, every request except
// the read-only introspection endpoints (GET /metrics, /stats,
// /debug/queries) is answered immediately with 503 and Retry-After,
// so load balancers fail over at once instead of queueing behind a
// closing listener. In-flight requests are unaffected — the caller
// still drains them with http.Server.Shutdown.
func (h *Handler) SetDraining(v bool) { h.s.draining.Store(v) }

// NewHandler returns the daemon's handler over st.
func NewHandler(st *store.Store, opts Options) *Handler {
	s := &server{
		store:        st,
		eng:          st.Engine(),
		maxBody:      DefaultMaxBody,
		tracer:       opts.Tracer,
		http:         &metrics.HTTPMetrics{},
		runtime:      &metrics.RuntimeMetrics{},
		queryTimeout: opts.QueryTimeout,
		qgate:        newGate(opts.MaxConcurrentQueries, 2*opts.MaxConcurrentQueries),
		bulkBytes:    newByteGate(opts.MaxBulkBytes),
	}
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.http.Instrument(endpoint, echoRequestID(h)))
	}
	route("PUT /docs/{id}", "put_doc", s.putDoc)
	route("GET /docs/{id}", "get_doc", s.getDoc)
	route("DELETE /docs/{id}", "delete_doc", s.deleteDoc)
	route("POST /bulk", "bulk", s.bulk)
	route("POST /query", "query", s.query)
	route("POST /explain", "explain", s.explain)
	route("POST /validate", "validate", s.validate)
	route("GET /stats", "stats", s.stats)
	route("GET /metrics", "metrics", s.metrics)
	route("GET /debug/queries", "debug_queries", s.debugQueries)
	return &Handler{Handler: s.drainWrap(mux), s: s}
}

// drainWrap rejects requests while draining, passing through the
// introspection endpoints an operator (or scraper) needs to watch the
// drain itself.
func (s *server) drainWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			switch {
			case r.Method == http.MethodGet && (r.URL.Path == "/metrics" || r.URL.Path == "/stats" || r.URL.Path == "/debug/queries"):
			default:
				s.drainSheds.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, "server is shutting down")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// echoRequestID reflects a client-supplied X-Request-ID back on the
// response, so callers correlating against logs, traces or a load
// generator's slowest-request report can confirm the id round-tripped.
func echoRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get("X-Request-ID"); id != "" {
			w.Header().Set("X-Request-ID", id)
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// bodyErrStatus maps a request-body read failure to its status:
// hitting the MaxBytesReader limit is 413 Request Entity Too Large
// (the body was bigger than the server accepts), everything else —
// malformed JSON, an early disconnect — is the client's 400. The
// *http.MaxBytesError survives errors.As through engine.BuildTree's read, the
// bulk scanner and json.Decoder, all of which return reader
// errors unwrapped (or wrapped with %w / errors.Join).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// StatusClientClosedRequest is the non-standard (nginx-originated)
// status reported when the client went away before the query
// finished; no client sees it, but it keeps the access metrics honest
// about who aborted.
const StatusClientClosedRequest = 499

// queryErrStatus maps a query-execution failure: the server's
// deadline is a 504 (the query ran too long, the server gave up), the
// client's disappearance is 499, a degraded store is 503 — the
// rest is the server's 500.
func queryErrStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, store.ErrDegraded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeStoreErr maps a write-path store failure: a degraded shard is
// the retryable 503 (the WAL failed; the store is read-only until the
// background probe heals it), anything else the non-retryable 500.
func writeStoreErr(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrDegraded) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

// queryCtx derives the execution context for one /query or /explain
// request: the client's context bounded by the configured
// QueryTimeout, which an X-Timeout-Ms header overrides per request
// (0 disables the timeout for that request). Reports ok=false (and
// writes the 400) on a malformed header or one too large for a
// time.Duration.
func (s *server) queryCtx(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	timeout := s.queryTimeout
	if h := r.Header.Get("X-Timeout-Ms"); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms < 0 || int64(ms) > math.MaxInt64/int64(time.Millisecond) {
			writeError(w, http.StatusBadRequest, "bad X-Timeout-Ms %q", h)
			return nil, nil, false
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx := r.Context()
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		return ctx, cancel, true
	}
	return ctx, func() {}, true
}

// admit passes the request through the query gate, recording the wait
// as a "gate" span on tr and writing the 429/504 on rejection.
// Returns the release function and ok.
func (s *server) admit(w http.ResponseWriter, ctx context.Context, tr *trace.Trace) (func(), bool) {
	if s.qgate == nil {
		return func() {}, true
	}
	sp := tr.Start(tr.Root(), "gate")
	release, err := s.qgate.acquire(ctx)
	tr.End(sp)
	if err == nil {
		return release, true
	}
	if errors.Is(err, errShed) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	} else {
		writeError(w, queryErrStatus(err), "query admission: %v", err)
	}
	return nil, false
}

func (s *server) putDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, err := engine.BuildTree(http.MaxBytesReader(w, r.Body, s.maxBody), nil)
	if err != nil {
		writeError(w, bodyErrStatus(err), "%v", err)
		return
	}
	if err := s.store.PutTree(id, t); err != nil {
		if errors.Is(err, store.ErrSchema) {
			// The document parsed but does not conform to the store's
			// enforced schema: the request is well-formed, its content is
			// not — 422, distinct from the 400 parse failures above.
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		// A WAL failure: the write is not durable (a failed append was
		// additionally never applied). A degraded shard maps to 503.
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "nodes": t.Len()})
}

func (s *server) getDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no document %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Stream node-at-a-time (byte-for-byte t.String() plus the
	// trailing newline) instead of materializing the whole document in
	// memory first — GET is the hottest endpoint, and one
	// document-sized allocation per read was its biggest cost.
	if _, err := t.WriteTo(w); err != nil {
		return // client gone mid-body; nothing sensible left to send
	}
	w.Write([]byte{'\n'})
}

func (s *server) deleteDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.store.Delete(id)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no document %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

func (s *server) bulk(w http.ResponseWriter, r *http.Request) {
	// Bound the bytes of concurrently admitted uploads before reading
	// anything. An unknown Content-Length (chunked upload) reserves the
	// worst case, maxBody.
	n := r.ContentLength
	if n < 0 {
		n = s.maxBody
	}
	release, gerr := s.bulkBytes.acquire(n)
	if gerr != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", gerr)
		return
	}
	defer release()
	// MaxBytesReader (not LimitReader) so an oversized upload surfaces
	// as an ingest error instead of a silent truncation reported as
	// success.
	res, err := s.store.BulkNDJSON(http.MaxBytesReader(w, r.Body, s.maxBody))
	type lineError struct {
		Line  int    `json:"line"`
		Error string `json:"error"`
	}
	errs := make([]lineError, len(res.Errors))
	for i, e := range res.Errors {
		errs[i] = lineError{Line: e.Line, Error: e.Err.Error()}
	}
	body := map[string]any{
		"inserted": len(res.IDs),
		"ids":      res.IDs,
		"errors":   errs,
		// How many of the inserted lines are already durable per the
		// store's fsync policy. On a mid-batch WAL failure this is the
		// prefix the client does NOT need to re-upload.
		"durable": res.Durable,
	}
	if err != nil {
		// Lines before the failure are already stored; report them so
		// the client can reconcile instead of blindly re-uploading.
		// A WAL/disk failure is the server's fault, 500 — matching the
		// put/delete handlers — or 503 when it tripped the shard into
		// degraded mode; an oversized body is 413; every other abort
		// (oversized line, client disconnect mid-upload) is the
		// stream's, 400.
		status := bodyErrStatus(err)
		if errors.Is(err, store.ErrWAL) {
			status = http.StatusInternalServerError
		}
		if errors.Is(err, store.ErrDegraded) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		body["error"] = fmt.Sprintf("bulk ingest aborted: %v", err)
		writeJSON(w, status, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// queryRequest is the body of POST /query and POST /validate.
type queryRequest struct {
	// Lang is the front end: "jnl", "jsl", "jsonpath" or "mongo".
	Lang string `json:"lang"`
	// Query is the source text in that language.
	Query string `json:"query"`
	// Mode selects document matching ("find", default) or node
	// selection ("select") for /query.
	Mode string `json:"mode"`
	// Values asks "select" results to include the rendered JSON of
	// each selected node.
	Values bool `json:"values"`
	// ID and Doc select the validation subject for /validate: a stored
	// document or an inline one.
	ID  string `json:"id"`
	Doc string `json:"doc"`
}

// decodeQuery reads the shared /query-family request body.
func (s *server) decodeQuery(w http.ResponseWriter, r *http.Request) (*queryRequest, bool) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		writeError(w, bodyErrStatus(err), "bad request body: %v", err)
		return nil, false
	}
	return &req, true
}

// compileReq parses the request's language and compiles its query,
// recording compile spans on tr (nil for the untraced endpoints).
func (s *server) compileReq(w http.ResponseWriter, req *queryRequest, tr *trace.Trace) (*engine.Plan, bool) {
	lang, err := engine.ParseLanguage(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	p, err := s.eng.CompileTraced(lang, req.Query, tr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "compile: %v", err)
		return nil, false
	}
	return p, true
}

func (s *server) compile(w http.ResponseWriter, r *http.Request) (*engine.Plan, *queryRequest, bool) {
	req, ok := s.decodeQuery(w, r)
	if !ok {
		return nil, nil, false
	}
	p, ok := s.compileReq(w, req, nil)
	return p, req, ok
}

func (s *server) query(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	// The trace spans the whole pipeline from here: compile (plan-cache
	// lookup, front-end parse, QIR compile) through the store's plan /
	// probe / eval / merge stages. Finish decides whether it is kept —
	// slow or sampled — or dropped back into the recorder pool.
	tr := s.tracer.Start()
	defer s.tracer.Finish(tr)
	mode := req.Mode
	if mode == "" {
		mode = "find" // record the default explicitly, not the omission
	}
	tr.SetQuery(req.Lang, req.Query, mode)
	tr.SetRequestID(r.Header.Get("X-Request-ID"))
	ctx, cancel, ok := s.queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	release, ok := s.admit(w, ctx, tr)
	if !ok {
		return
	}
	defer release()
	p, ok := s.compileReq(w, req, tr)
	if !ok {
		return
	}
	switch req.Mode {
	case "", "find":
		ids, indexed, err := s.store.FindTraced(ctx, p, tr)
		if err != nil {
			writeError(w, queryErrStatus(err), "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"count":   len(ids),
			"ids":     ids,
			"indexed": indexed,
		})
	case "select":
		sels, indexed, err := s.store.SelectTraced(ctx, p, tr)
		if err != nil {
			writeError(w, queryErrStatus(err), "%v", err)
			return
		}
		type docSelection struct {
			ID     string   `json:"id"`
			Nodes  []int    `json:"nodes"`
			Values []string `json:"values,omitempty"`
		}
		out := make([]docSelection, len(sels))
		var buf []byte // one rendered value at a time, reused
		for i, sel := range sels {
			ds := docSelection{ID: sel.ID, Nodes: make([]int, len(sel.Nodes))}
			for j, n := range sel.Nodes {
				ds.Nodes[j] = int(n)
			}
			if req.Values {
				// Render from the selection's snapshot tree: the node IDs
				// are only meaningful there, and the stored document may
				// have been replaced concurrently.
				ds.Values = make([]string, len(sel.Nodes))
				for j, n := range sel.Nodes {
					buf = sel.Tree.AppendJSON(buf[:0], n)
					ds.Values[j] = string(buf)
				}
			}
			out[i] = ds
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"count":   len(out),
			"results": out,
			"indexed": indexed,
		})
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q", req.Mode)
	}
}

// explain runs the query like /query but reports how instead of what:
// the lowered logical tree, the physical operator program, the
// planner's access decision with per-term statistics, and estimated
// versus actual cardinalities.
func (s *server) explain(w http.ResponseWriter, r *http.Request) {
	// Explain executes the real pipeline, so it pays the same admission
	// toll and timeout as /query.
	ctx, cancel, ok := s.queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	release, ok := s.admit(w, ctx, nil)
	if !ok {
		return
	}
	defer release()
	p, req, ok := s.compile(w, r)
	if !ok {
		return
	}
	switch req.Mode {
	case "", "find", "select":
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q", req.Mode)
		return
	}
	ex, err := s.store.Explain(ctx, p, req.Mode)
	if err != nil {
		// The mode was validated above, so any error here is an
		// evaluation failure; timeouts and degradation map like /query.
		writeError(w, queryErrStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

func (s *server) validate(w http.ResponseWriter, r *http.Request) {
	p, req, ok := s.compile(w, r)
	if !ok {
		return
	}
	var t *jsontree.Tree
	switch {
	case req.ID != "" && req.Doc != "":
		writeError(w, http.StatusBadRequest, "give id or doc, not both")
		return
	case req.ID != "":
		var found bool
		t, found = s.store.Get(req.ID)
		if !found {
			writeError(w, http.StatusNotFound, "no document %q", req.ID)
			return
		}
	case req.Doc != "":
		var err error
		t, err = jsontree.Parse(req.Doc)
		if err != nil {
			writeError(w, http.StatusBadRequest, "doc: %v", err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "give id or doc")
		return
	}
	valid, err := s.eng.Validate(p, t)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"valid": valid})
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	cs := s.eng.CacheStats()
	var hitRate float64
	if cs.Hits+cs.Misses > 0 {
		hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"store": s.store.Stats(),
		"plan_cache": map[string]any{
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evictions": cs.Evictions,
			"entries":   cs.Entries,
			"capacity":  cs.Capacity,
			"hit_rate":  hitRate,
		},
		"semantic": map[string]any{
			"checks":              cs.SemanticChecks,
			"unsat":               cs.SemanticUnsat,
			"unknown":             cs.SemanticUnknown,
			"aliases":             cs.SemanticAliases,
			"borrowed_facts":      cs.SemanticBorrowed,
			"schema_pruned_facts": cs.SchemaPrunedFacts,
		},
	})
}
