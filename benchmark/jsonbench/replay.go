package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded call: into a layer's public function by the
// benchmark, or — the children of a query's httpapi.serve — a stage the
// program's own tracer recorded inside that call. Spans of one request
// share its id; times are nanoseconds since the traced run began.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Request string         `json:"request"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (rc *recorder) add(parent int, request, name string, start, end time.Time, attrs map[string]any) int {
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNS: int64(start.Sub(rc.t0)), EndNS: int64(end.Sub(rc.t0)), Attrs: attrs})
	return id
}

// timed records fn as one span.
func (rc *recorder) timed(request, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	rc.add(0, request, name, start, end, nil)
	return end.Sub(start), err
}

func (rc *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range rc.spans {
		if err := enc.Encode(&rc.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals: the part of a
// parent span its (possibly concurrent) children account for.
func covered(iv [][2]int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(total)
}

// serial is the workload's requests in one fixed order for a single
// caller, the clients' sequences interleaved: the first n of the cycle,
// or on query-cold exactly one pass.
func (w *workload) serial(n int) []*request {
	if w.cold {
		n = len(w.clients[0]) + len(w.clients[1])
	}
	out := make([]*request, 0, n)
	for i := 0; len(out) < n; i++ {
		for _, seq := range w.clients {
			if len(out) < n && (!w.cold || i < len(seq)) {
				out = append(out, &seq[i%len(seq)])
			}
		}
	}
	return out
}

// replayResult is one serial replay of the prefix.
type replayResult struct {
	lat   []time.Duration // per request
	opens []time.Duration // store.Open before each pass
	delta storeCounters   // the store's and engine's counters over the timed requests
}

func (rr *replayResult) total(n int) time.Duration {
	var t time.Duration
	for _, d := range rr.lat[:n] {
		t += d
	}
	return t
}

func (rr *replayResult) p50us() float64 {
	xs := make([]float64, len(rr.lat))
	for i, d := range rr.lat {
		xs[i] = us(d)
	}
	return median(xs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// passes splits the replay prefix (a request count, so the replay's
// counters repeat exactly) into daemon lifetimes: one for the steady
// workloads, one per pass on query-cold.
func (r *runner) passes() [][]*request {
	pass := r.w.serial(r.w.replay)
	out := [][]*request{pass}
	for r.w.cold && (len(out)+1)*len(pass) <= r.w.replay {
		out = append(out, pass)
	}
	return out
}

// replayHTTP sends the prefix to the daemon from one client, serially:
// the one-client HTTP latency net.share compares with the in-process
// handler time.
func (r *runner) replayHTTP(budget time.Duration) (*replayResult, error) {
	rr := &replayResult{}
	deadline := time.Now().Add(budget)
	for i, pass := range r.passes() {
		if r.w.cold {
			if err := r.restart(); err != nil {
				return nil, err
			}
		}
		c := r.newClient(fmt.Sprintf("h%d", i), r.d.base)
		for _, req := range pass {
			if time.Now().After(deadline) || r.ctx.Err() != nil {
				break
			}
			lat, _ := c.do(req)
			r.attempted++
			rr.lat = append(rr.lat, lat)
		}
		c.http.CloseIdleConnections()
	}
	return rr, nil
}

// replayInProcess runs the prefix through the daemon's handler on an
// in-memory recorder, one store.Open per pass. With rc set it is the
// traced replay: the handler's tracer keeps every query's trace and
// each request becomes an httpapi.serve span with the program's own
// stages as children.
func (r *runner) replayInProcess(dir string, budget time.Duration, rc *recorder) (*replayResult, error) {
	rr := &replayResult{}
	deadline := time.Now().Add(budget)
	n := 0
	for _, pass := range r.passes() {
		openStart := time.Now()
		lay, opened, err := openLayers(dir, r.w.snapshotEvery, rc != nil)
		if err != nil {
			return nil, err
		}
		rr.opens = append(rr.opens, opened)
		if rc != nil {
			rc.add(0, fmt.Sprintf("open-%d", len(rr.opens)), "store.open", openStart, openStart.Add(opened), nil)
		}
		for i := range r.w.warm { // steady workloads replay from a warm store, as the daemon was
			r.serve(lay, &r.w.warm[i], fmt.Sprintf("warm-%d", i))
		}
		before := lay.counters()
		for _, req := range pass {
			if time.Now().After(deadline) || r.ctx.Err() != nil {
				break
			}
			n++
			id := fmt.Sprintf("r%06d", n)
			start, end := r.serve(lay, req, id)
			rr.lat = append(rr.lat, end.Sub(start))
			if rc == nil {
				continue
			}
			serve := rc.add(0, id, "httpapi.serve", start, end, map[string]any{"kind": req.kind.String()})
			imported := lay.importedSpans(id)
			ids := make([]int, len(imported))
			for k, sp := range imported {
				parent := serve
				if sp.parent >= 0 {
					parent = ids[sp.parent]
				}
				ids[k] = rc.add(parent, id, sp.name, sp.start, sp.end, sp.attrs)
			}
		}
		rr.delta = addDelta(rr.delta, before, lay.counters())
		if err := lay.close(); err != nil {
			return nil, err
		}
	}
	return rr, nil
}

// serve runs one request through the in-process handler, then the
// oracle, and returns when the handler was entered and left.
func (r *runner) serve(lay *layers, req *request, id string) (start, end time.Time) {
	pos, method, path, body, before := r.prepare(req)
	start = time.Now()
	status, raw := lay.serve(method, path, body, id)
	end = time.Now()
	r.attempted++
	if err := r.check(req, pos, status, raw, before); err != nil {
		r.fail(id, fmt.Errorf("in-process %s %s: %w", method, path, err))
	}
	return start, end
}

// runTraced produces the per-layer metrics: one set-up over HTTP, a
// one-client HTTP replay of the sequence's prefix, then — after the
// daemon has exited — the same prefix through the in-process handler
// (the daemon's default tracer, then every trace kept and every call a
// span) and the layer probes, all on the data dir the daemon left. Each
// replay gets a quarter of the run's seconds as a cap; on the reference
// box the request count ends them first.
func (r *runner) runTraced(o runOpts) (*report, error) {
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
	}()
	if r.w.writer {
		r.wr = &written{docs: map[int]*docVersion{}}
	}
	if _, err := r.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	budget := time.Duration(o.seconds / 4 * float64(time.Second))
	httpRun, err := r.replayHTTP(budget)
	if err != nil {
		return nil, err
	}
	dir := r.d.dir
	if err := r.stop(); err != nil {
		return nil, err
	}

	// One throwaway replay first, so that both timed replays run in a
	// process whose heap has already grown: without it the first one
	// pays for that and the tracing overhead reads negative.
	if _, err := r.replayInProcess(dir, budget, nil); err != nil {
		return nil, err
	}
	plain, err := r.replayInProcess(dir, budget, nil)
	if err != nil {
		return nil, err
	}
	rc := &recorder{t0: time.Now()}
	traced, err := r.replayInProcess(dir, budget, rc)
	if err != nil {
		return nil, err
	}
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	values, info, counts, err := r.probe(dir, rc)
	if err != nil {
		return nil, err
	}
	r.summarize(rc, httpRun, plain, traced, values, info, counts)
	if err := rc.write(filepath.Join(r.env.out, r.w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	return r.report(perLayer, values, info, counts), nil
}

// addDelta accumulates after-before into sum, field by field, for the
// counters that only grow; the tier sizes are copied from after.
func addDelta(sum, before, after storeCounters) storeCounters {
	sum.walAppends += after.walAppends - before.walAppends
	sum.walBytes += after.walBytes - before.walBytes
	sum.walSyncs += after.walSyncs - before.walSyncs
	sum.compactions += after.compactions - before.compactions
	sum.candidateDocs += after.candidateDocs - before.candidateDocs
	sum.scannedDocs += after.scannedDocs - before.scannedDocs
	sum.steps += after.steps - before.steps
	sum.cacheHits += after.cacheHits - before.cacheHits
	sum.cacheMisses += after.cacheMisses - before.cacheMisses
	sum.segmentDocs, sum.memtableDocs = before.segmentDocs, before.memtableDocs
	sum.segmentsMapped, sum.walRecordsReplayed = after.segmentsMapped, after.walRecordsReplayed
	return sum
}

// summarize turns the replays' spans and counters into metrics.
func (r *runner) summarize(rc *recorder, httpRun, plain, traced *replayResult,
	values, info map[string]float64, counts map[string]int64) {
	delta := traced.delta
	// Per request: the serve span, and per layer the part of it the
	// program's own stages cover.
	type requestSpans struct {
		serve  *span
		layers map[string][][2]int64
		all    [][2]int64
	}
	byRequest := map[string]*requestSpans{}
	var order []*requestSpans
	stage := map[string][]float64{} // per query: a stage's covered time, us
	var results, examined int64
	for i := range rc.spans {
		sp := &rc.spans[i]
		if sp.Name == "httpapi.serve" {
			rs := &requestSpans{serve: sp, layers: map[string][][2]int64{}}
			byRequest[sp.Request] = rs
			order = append(order, rs)
			continue
		}
		rs := byRequest[sp.Request]
		if rs == nil {
			continue
		}
		if sp.Parent == rs.serve.ID {
			rs.all = append(rs.all, [2]int64{sp.StartNS, sp.EndNS})
			rs.layers[sp.Name] = append(rs.layers[sp.Name], [2]int64{sp.StartNS, sp.EndNS})
		}
		switch sp.Name {
		case "store.merge":
			results += attrInt(sp.Attrs, "results")
		case "qir.eval":
			examined += attrInt(sp.Attrs, "docs")
		}
	}
	var serveTotal, childTotal, qirTotal, queryServe time.Duration
	var serveUS []float64
	for _, rs := range order {
		d := rs.serve.dur()
		serveUS = append(serveUS, us(d))
		switch rs.serve.Attrs["kind"] {
		case "query":
			serveTotal += d
			childTotal += covered(rs.all)
			queryServe += d
			qirTotal += covered(rs.layers["qir.eval"])
			for _, name := range []string{"store.plan", "store.probe", "qir.eval", "store.merge"} {
				stage[name] = append(stage[name], us(covered(rs.layers[name])))
			}
		case "get":
			// What GET does below the handler, from the probes: a warm
			// Store.Get and the encode of one document.
			serveTotal += d
			childTotal += time.Duration((values["store.get_warm_us"] + info["jsontree.encode_us"]) * 1e3)
		case "put":
			serveTotal += d
			childTotal += time.Duration((info["jsontree.build_total_us"] + values["store.put_us"]) * 1e3)
		}
	}
	values["httpapi.serve_us"] = median(serveUS)
	values["httpapi.self_share"] = 1 - float64(childTotal)/float64(serveTotal)
	values["net.share"] = (httpRun.p50us() - plain.p50us()) / httpRun.p50us()
	info["http_1client_p50_us"] = httpRun.p50us()
	info["inprocess_p50_us"] = plain.p50us()
	values["store.plan_us"] = median(stage["store.plan"])
	values["store.probe_us"] = median(stage["store.probe"])
	values["store.eval_us"] = median(stage["qir.eval"])
	values["store.merge_us"] = median(stage["store.merge"])
	values["qir.self_share"] = float64(qirTotal) / float64(queryServe)
	values["store.candidates_per_result"] = float64(examined) / float64(max(results, 1))
	values["store.intersection_steps"] = float64(delta.steps) / float64(max(len(stage["store.plan"]), 1))
	values["store.segment_doc_share"] = float64(delta.segmentDocs) / float64(max(delta.segmentDocs+delta.memtableDocs, 1))
	values["engine.plan_cache_hit_ratio"] = float64(delta.cacheHits) / float64(max(delta.cacheHits+delta.cacheMisses, 1))
	values["store.wal_syncs"] = float64(delta.walSyncs)
	values["store.compactions"] = float64(delta.compactions)

	var opens []float64
	for _, d := range append(plain.opens, traced.opens...) {
		opens = append(opens, ms(d))
	}
	values["store.open_ms"] = median(opens)
	n := min(len(plain.lat), len(traced.lat))
	values["trace_overhead_share"] = float64(traced.total(n)-plain.total(n)) / float64(plain.total(n))

	counts["replay_requests"] = int64(len(traced.lat))
	counts["docs_examined"] = int64(delta.candidateDocs + delta.scannedDocs)
	counts["results_returned"] = results
	counts["wal_appends"] = int64(delta.walAppends)
	counts["plan_cache_misses"] = int64(delta.cacheMisses)
	counts["segments_mapped"] = int64(delta.segmentsMapped)
	counts["wal_records_replayed"] = int64(delta.walRecordsReplayed)
	counts["spans"] = int64(len(rc.spans))
}

func attrInt(attrs map[string]any, key string) int64 {
	v, _ := attrs[key].(int64)
	return v
}
