package main

// layers.go is the only file of the benchmark that calls into the
// repository's packages: the traced replay and the layer probes reach
// every layer through the functions below, so an API rename touches one
// place. The end-to-end runs do not use it at all — they know the
// binary's flags and HTTP routes only.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/httpapi"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/store"
	"jsonlogic/internal/stream"
	"jsonlogic/internal/trace"
)

// The daemon's defaults (cmd/jsonstored/main.go), which the in-process
// replay must share to be a replay of the same system.
const (
	daemonPlanCache      = 256
	daemonSemanticBudget = 50000
	daemonSlowQuery      = 200 * time.Millisecond
)

type (
	tree    = *jsontree.Tree
	plan    = *engine.Plan
	nodeIDs = []jsontree.NodeID
)

// layers is an in-process jsonstored over a data directory: the store,
// its engine, and the HTTP handler the daemon serves.
type layers struct {
	st     *store.Store
	eng    *engine.Engine
	tracer *trace.Tracer
	h      http.Handler
}

func newEngine() *engine.Engine {
	return engine.New(engine.Options{PlanCacheSize: daemonPlanCache, SemanticBudget: daemonSemanticBudget})
}

// openLayers opens dir the way the daemon does under the benchmark's
// flags and reports how long store.Open took. With keep set the
// handler's tracer keeps every query's trace for importedSpans; without
// it the tracer is the daemon's default (armed, slow queries only).
func openLayers(dir string, snapshotEvery int, keep bool) (*layers, time.Duration, error) {
	l := &layers{eng: newEngine()}
	start := time.Now()
	st, err := store.Open(store.Options{
		Engine: l.eng, DataDir: dir, Fsync: store.FsyncInterval, SnapshotEvery: snapshotEvery,
	})
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	l.st = st
	slow := daemonSlowQuery
	if keep {
		slow = 0
	}
	l.tracer = trace.New(trace.Options{SlowQuery: slow, RingSize: 4})
	l.h = httpapi.NewHandler(st, httpapi.Options{Tracer: l.tracer})
	return l, took, nil
}

func (l *layers) close() error { return l.st.Close() }

// serve runs one request through the daemon's handler on an in-memory
// recorder.
func (l *layers) serve(method, path string, body []byte, id string) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// importedSpan is one span the program itself recorded for a query,
// placed on the wall clock.
type importedSpan struct {
	name       string
	parent     int // index into the returned slice; -1: child of the request
	start, end time.Time
	attrs      map[string]any
}

// layerOf maps the program's span names to the layer that did the work.
var layerOf = map[string]string{
	"gate":        "httpapi.gate",
	"compile":     "engine.compile",
	"parse":       "engine.parse",
	"qir_compile": "engine.qir_compile",
	"semantic":    "engine.semantic",
	"plan":        "store.plan",
	"probe":       "store.probe",
	"eval":        "qir.eval", // the store's per-shard loop over engine.Validate / EvalAppend
	"merge":       "store.merge",
}

// importedSpans returns the spans the handler's tracer kept for the
// request with the given id (nil when it kept none: not a query).
func (l *layers) importedSpans(id string) []importedSpan {
	for _, snap := range l.tracer.Snapshots() {
		if snap.RequestID != id {
			continue
		}
		var out []importedSpan
		var walk func(nodes []*trace.SpanOut, parent int)
		walk = func(nodes []*trace.SpanOut, parent int) {
			for _, n := range nodes {
				name, ok := layerOf[n.Name]
				if !ok {
					name = "other." + n.Name
				}
				start := snap.Time.Add(time.Duration(n.StartNS))
				out = append(out, importedSpan{name: name, parent: parent, start: start,
					end: start.Add(time.Duration(n.DurationNS)), attrs: n.Attrs})
				walk(n.Children, len(out)-1)
			}
		}
		for _, root := range snap.Spans {
			walk(root.Children, -1) // the root is the request itself
		}
		return out
	}
	return nil
}

// storeCounters are the store and engine counters the replay reads as
// deltas.
type storeCounters struct {
	walAppends, walBytes, walSyncs, compactions uint64
	segmentBytes                                int64
	segmentDocs, memtableDocs                   int
	segmentsMapped, walRecordsReplayed          int
	candidateDocs, scannedDocs, steps           uint64
	cacheHits, cacheMisses                      uint64
}

func (l *layers) counters() storeCounters {
	st := l.st.Stats()
	cs := l.eng.CacheStats()
	d := st.Durability
	return storeCounters{
		walAppends: d.WALAppends, walBytes: d.WALBytes, walSyncs: d.WALSyncs, compactions: d.Compactions,
		segmentBytes: d.SegmentBytes, segmentDocs: d.SegmentDocs, memtableDocs: d.MemtableDocs,
		segmentsMapped: d.Recovery.SegmentsMapped, walRecordsReplayed: d.Recovery.WALRecordsReplayed,
		candidateDocs: st.Queries.CandidateDocs, scannedDocs: st.Queries.ScannedDocs,
		steps:     st.Queries.IntersectionSteps,
		cacheHits: cs.Hits, cacheMisses: cs.Misses,
	}
}

// tokenize is the bare stream.Tokenizer.Next loop over one document.
func tokenize(doc []byte) error {
	tok := stream.NewTokenizer(bytes.NewReader(doc))
	for {
		if _, err := tok.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// buildTree is the ingest path's document-to-tree step (tokenize and
// build) on a fresh builder, as PUT /docs/{id} runs it.
func buildTree(doc []byte) (tree, error) {
	return engine.BuildTree(bytes.NewReader(doc), jsontree.NewBuilder())
}

// encode writes the tree as JSON, as GET /docs/{id} does, and returns
// the bytes written.
func encode(t tree) (int64, error) { return t.WriteTo(io.Discard) }

func (l *layers) get(id string) (tree, bool)      { return l.st.Get(id) }
func (l *layers) putTree(id string, t tree) error { return l.st.PutTree(id, t) }
func (l *layers) snapshot() error                 { return l.st.Snapshot() }

func (l *layers) bulk(ndjson []byte) (int, error) {
	res, err := l.st.BulkNDJSON(bytes.NewReader(ndjson))
	return len(res.IDs), err
}

// compile compiles through the store's engine (plan cache included).
func (l *layers) compile(lang, text string) (plan, error) {
	lg, err := engine.ParseLanguage(lang)
	if err != nil {
		return nil, err
	}
	return l.eng.Compile(lg, text)
}

// evalDoc is the QIR executor on one document: Validate for find,
// EvalAppend for select.
func (l *layers) evalDoc(p plan, t tree, mode string, scratch *nodeIDs) error {
	if mode == "select" {
		out, err := l.eng.EvalAppend(p, t, (*scratch)[:0])
		*scratch = out
		return err
	}
	_, err := l.eng.Validate(p, t)
	return err
}

// compileTimes is one text compiled twice on a fresh engine: the miss
// with its child stages as the engine's own trace recorded them, then
// the hit.
type compileTimes struct {
	miss, hit, parse, qirCompile, semantic time.Duration
}

func compileFresh(lang, text string) (compileTimes, error) {
	var ct compileTimes
	lg, err := engine.ParseLanguage(lang)
	if err != nil {
		return ct, err
	}
	eng := newEngine()
	tr := trace.NewTrace("compile-probe")
	start := time.Now()
	_, err = eng.CompileTraced(lg, text, tr)
	ct.miss = time.Since(start)
	if err != nil {
		return ct, err
	}
	for _, root := range tr.Spans() {
		for _, c := range root.Children {
			if c.Name != "compile" {
				continue
			}
			for _, stage := range c.Children {
				d := time.Duration(stage.DurationNS)
				switch stage.Name {
				case "parse":
					ct.parse = d
				case "qir_compile":
					ct.qirCompile = d
				case "semantic":
					ct.semantic = d
				}
			}
		}
	}
	start = time.Now()
	_, err = eng.CompileTraced(lg, text, nil)
	ct.hit = time.Since(start)
	return ct, err
}
