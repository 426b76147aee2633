package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// runOpts bound one run. The contract's runs are time-bound; the
// self-test caps the request count instead.
type runOpts struct {
	seconds     float64
	maxRequests int // per client and window; 0: no cap
	setups      int // how many times the set-up is repeated (its median is reported)
}

// sample is one measured request.
type sample struct {
	at   time.Duration // completion, since the window opened
	lat  time.Duration
	kind opKind
	ok   bool
}

// written is what write-mixed's writer has had acknowledged, shared with
// the reader so a GET can be checked against the value it may see.
type written struct {
	mu     sync.Mutex
	docs   map[int]*docVersion
	latest int // corpus position most recently acknowledged
	bulk   []bulkDoc
}

type docVersion struct {
	acked    []byte // last acknowledged body; nil: still the corpus body
	pending  []byte // body of the PUT in flight
	gone     bool   // DELETE sent, re-PUT not yet acknowledged
	writes   int    // PUTs and DELETEs sent
	repaired bool   // was deleted and put again
}

type bulkDoc struct {
	id   string
	body []byte
}

// version returns a copy of the document's state.
func (w *written) version(pos int) docVersion {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v := w.docs[pos]; v != nil {
		return *v
	}
	return docVersion{}
}

func (w *written) update(pos int, fn func(v *docVersion)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.docs[pos]
	if v == nil {
		v = &docVersion{}
		w.docs[pos] = v
	}
	fn(v)
}

// runner drives one workload against the real binary.
type runner struct {
	ctx context.Context // cancelled by SIGINT/SIGTERM: windows end early and the run fails
	env *env
	w   *workload
	d   *daemon  // the daemon currently running, if any
	ids []string // document id of each corpus position, as /bulk assigned them
	wr  *written

	attempted int
	recovered []float64 // ms from spawn to first 200 on GET /stats, one per restart
	failures  []string  // "request id: what was wrong"
	failMu    sync.Mutex
}

func (r *runner) fail(id string, err error) {
	r.failMu.Lock()
	r.failures = append(r.failures, id+": "+err.Error())
	r.failMu.Unlock()
}

// client is one closed-loop caller on its own connection.
type client struct {
	r       *runner
	name    string
	http    *http.Client
	base    string
	buf     bytes.Buffer
	samples []sample
	seq     int
}

func (r *runner) newClient(name, base string) *client {
	return &client{r: r, name: name, base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// prepare resolves what a request sends and notes a write as in flight.
// before is the target document's state as the request leaves, for a
// GET that may race the writer.
func (r *runner) prepare(req *request) (pos int, method, path string, body []byte, before docVersion) {
	pos = req.doc
	if pos == latestWrite {
		r.wr.mu.Lock()
		pos = r.wr.latest
		r.wr.mu.Unlock()
	}
	switch req.kind {
	case opQuery:
		return pos, http.MethodPost, "/query", req.q.body, before
	case opGet:
		if r.wr != nil {
			before = r.wr.version(pos)
		}
		return pos, http.MethodGet, "/docs/" + r.ids[pos], nil, before
	case opPut:
		r.wr.update(pos, func(v *docVersion) { v.pending, v.writes = req.body, v.writes+1 })
		return pos, http.MethodPut, "/docs/" + r.ids[pos], req.body, before
	case opDelete:
		r.wr.update(pos, func(v *docVersion) { v.gone, v.writes, v.repaired = true, v.writes+1, true })
		return pos, http.MethodDelete, "/docs/" + r.ids[pos], nil, before
	}
	return pos, http.MethodPost, "/bulk", req.body, before
}

// do sends one request, waits for the whole reply, checks it against
// the oracle, and returns the client-observed latency. A wrong or
// refused reply is recorded as a failure under the request's id.
func (c *client) do(req *request) (lat time.Duration, ok bool) {
	c.seq++
	id := fmt.Sprintf("%s-%06d", c.name, c.seq)
	pos, method, path, body, before := c.r.prepare(req)
	hr, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	hr.Header.Set("X-Request-ID", id)
	start := time.Now()
	resp, err := c.http.Do(hr)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat = time.Since(start)
	if err == nil {
		err = c.r.check(req, pos, resp.StatusCode, c.buf.Bytes(), before)
	}
	if err != nil {
		c.r.fail(id, fmt.Errorf("%s %s: %w", method, path, err))
	}
	return lat, err == nil
}

// check is the answer oracle for one reply.
func (r *runner) check(req *request, pos, status int, raw []byte, before docVersion) error {
	wr := r.wr
	if req.kind == opGet && wr != nil {
		// The writer may be mid-flight on this document: accept the
		// value acknowledged before the GET was sent, the one
		// acknowledged since, or the one in flight; 404 only while a
		// DELETE + re-PUT pair is open. Two or more writes during one
		// GET leave nothing to compare with.
		now := wr.version(pos)
		if now.writes-before.writes >= 2 {
			return nil
		}
		if status == http.StatusNotFound && (before.gone || now.gone || now.writes != before.writes) {
			return nil
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		for _, want := range [][]byte{before.acked, now.acked, now.pending} {
			if want == nil {
				want = r.w.corpus.bodies[pos]
			}
			if sameDoc(raw, want) {
				return nil
			}
		}
		return fmt.Errorf("body is none of the values the writer had acknowledged or in flight")
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, raw)
	}
	switch req.kind {
	case opQuery:
		slack := 0
		if wr != nil {
			slack = 1 // one document may be between DELETE and re-PUT
		}
		return req.q.check(raw, slack)
	case opGet:
		if !sameDoc(raw, r.w.corpus.bodies[pos]) {
			return fmt.Errorf("body differs from the loaded document")
		}
	case opPut:
		wr.update(pos, func(v *docVersion) { v.acked, v.pending, v.gone = req.body, nil, false })
		wr.mu.Lock()
		wr.latest = pos
		wr.mu.Unlock()
	case opBulk:
		var out bulkResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return err
		}
		if len(out.IDs) != req.lines || len(out.Errors) > 0 {
			return fmt.Errorf("bulk stored %d of %d lines, %d errors", len(out.IDs), req.lines, len(out.Errors))
		}
		lines := bytes.Split(bytes.TrimSuffix(req.body, []byte{'\n'}), []byte{'\n'})
		wr.mu.Lock()
		for i, id := range out.IDs {
			wr.bulk = append(wr.bulk, bulkDoc{id: id, body: lines[i]})
		}
		wr.mu.Unlock()
	}
	return nil
}

// sameDoc reports whether a GET body is the document followed by the
// newline the daemon appends.
func sameDoc(got, want []byte) bool {
	return len(got) == len(want)+1 && got[len(want)] == '\n' && bytes.Equal(got[:len(want)], want)
}

// queryResponse is the part of a POST /query reply the oracle reads.
type queryResponse struct {
	Count   int      `json:"count"`
	IDs     []string `json:"ids"`
	Indexed bool     `json:"indexed"`
	Results []struct {
		ID    string `json:"id"`
		Nodes []int  `json:"nodes"`
	} `json:"results"`
}

// bind fixes the document ids the query must return, once the load has
// told which id each corpus position got.
func (q *query) bind(ids []string) {
	q.wantIDs = q.wantIDs[:0]
	for _, pos := range q.want {
		q.wantIDs = append(q.wantIDs, ids[pos])
	}
}

// check compares a reply with the generator's ground truth: the count,
// the ids in order, the number of nodes selected in each document, and
// the access path. slack is how many expected documents may be absent.
func (q *query) check(raw []byte, slack int) error {
	var got queryResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		return err
	}
	if got.Indexed != q.indexed {
		return fmt.Errorf("indexed = %v, want %v", got.Indexed, q.indexed)
	}
	n := len(got.IDs)
	if q.Mode == "select" {
		n = len(got.Results)
	}
	if got.Count != n || n > len(q.wantIDs) || n < len(q.wantIDs)-slack {
		return fmt.Errorf("count %d (%d listed), want %d", got.Count, n, len(q.wantIDs))
	}
	w := 0
	for i := 0; i < n; i++ {
		id := ""
		if q.Mode == "select" {
			id = got.Results[i].ID
		} else {
			id = got.IDs[i]
		}
		for w < len(q.wantIDs) && q.wantIDs[w] != id {
			w++
		}
		if w == len(q.wantIDs) || w-i > slack {
			return fmt.Errorf("result %d is %s, not an expected document in order", i, id)
		}
		if q.Mode == "select" && len(got.Results[i].Nodes) != q.nodes[w] {
			return fmt.Errorf("%s: %d nodes selected, want %d", id, len(got.Results[i].Nodes), q.nodes[w])
		}
		w++
	}
	return nil
}

// load bulk-loads the corpus in 1000-line batches over one connection
// and returns how long that took.
func (r *runner) load(d *daemon) (time.Duration, error) {
	c := r.w.corpus
	ids := make([]string, 0, c.n)
	start := time.Now()
	var batch []byte
	for i, b := range c.bodies {
		batch = append(append(batch, b...), '\n')
		if (i+1)%1000 == 0 || i+1 == c.n {
			got, err := d.bulk(batch)
			if err != nil {
				return 0, err
			}
			ids = append(ids, got...)
			batch = batch[:0]
		}
	}
	took := time.Since(start)
	if len(ids) != c.n {
		return 0, fmt.Errorf("loaded %d documents, daemon stored %d", c.n, len(ids))
	}
	r.ids = ids
	for _, seq := range append(r.w.clients[:], r.w.warm) {
		for _, req := range seq {
			if req.q != nil {
				req.q.bind(ids)
			}
		}
	}
	return took, nil
}

// setupResult is one set-up and what it measured on the way.
type setupResult struct {
	took    time.Duration
	ingest  float64 // documents per second of the bulk load
	diskAmp float64 // data-dir bytes per byte of user JSON, after the quiesce
}

// setup brings a daemon to the state the workload measures from: spawn
// on a fresh data dir, bulk-load the corpus, wait for compactions to
// quiesce, and where the workload serves from a restarted daemon,
// SIGTERM, restart and one checked warm pass.
func (r *runner) setup() (res setupResult, err error) {
	dir, err := r.env.dataDir()
	if err != nil {
		return res, err
	}
	start := time.Now()
	if r.d, err = r.env.spawn(dir, r.w.snapshotEvery); err != nil {
		return res, err
	}
	loadTook, err := r.load(r.d)
	if err != nil {
		return res, err
	}
	res.ingest = float64(r.w.corpus.n) / loadTook.Seconds()
	if err = r.d.quiesce(); err != nil {
		return res, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return res, err
	}
	res.diskAmp = float64(size) / float64(r.w.corpus.bytes)
	if r.w.restart {
		if err = r.restart(); err != nil {
			return res, err
		}
		c := r.newClient("warm", r.d.base)
		for i := range r.w.warm {
			r.attempted++
			c.do(&r.w.warm[i])
		}
		c.http.CloseIdleConnections()
	}
	res.took = time.Since(start)
	return res, nil
}

// restart stops the daemon gracefully and starts it again on the same
// data dir, noting how long the new one took to answer.
func (r *runner) restart() error {
	dir := r.d.dir
	err := r.d.stop()
	r.d = nil
	if err != nil {
		return err
	}
	if r.d, err = r.env.spawn(dir, r.w.snapshotEvery); err != nil {
		return err
	}
	r.recovered = append(r.recovered, ms(r.d.recover))
	return nil
}

// stop ends the current daemon, gracefully when the run is going well.
func (r *runner) stop() error {
	d := r.d
	r.d = nil
	return d.stop()
}

// window runs both clients against the daemon: in a cycle over their sequences
// until the time or request cap is reached, or — a query-cold pass —
// once through. It returns the samples and the window's length.
func (r *runner) window(o runOpts, once bool) ([]sample, time.Duration) {
	var wg sync.WaitGroup
	clients := make([]*client, len(r.w.clients))
	start := time.Now()
	limit := time.Duration(o.seconds * float64(time.Second))
	for ci := range clients {
		c := r.newClient(fmt.Sprintf("c%d", ci), r.d.base)
		clients[ci] = c
		seq := r.w.clients[ci]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for i := 0; ; i++ {
				if once && i == len(seq) {
					return
				}
				if !once && (time.Since(start) >= limit || (o.maxRequests > 0 && i >= o.maxRequests)) {
					return
				}
				if r.ctx.Err() != nil {
					return
				}
				req := &seq[i%len(seq)]
				lat, ok := c.do(req)
				c.samples = append(c.samples, sample{at: time.Since(start), lat: lat, kind: req.kind, ok: ok})
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	var all []sample
	for _, c := range clients {
		all = append(all, c.samples...)
	}
	r.attempted += len(all)
	return all, took
}

// writerRestarts is how many times write-mixed restarts the daemon after
// its window: the first restart carries the durability check, all of
// them sample recover_ms.
const writerRestarts = 3

// run measures the workload end to end, tracing off.
func (r *runner) run(o runOpts) (*report, error) {
	defer func() {
		if r.d != nil {
			r.d.kill() // an error path left it running
		}
	}()
	var setups []setupResult
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			dir := r.d.dir
			if err := r.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		if r.w.writer {
			r.wr = &written{docs: map[int]*docVersion{}}
		}
		res, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, res)
	}

	var slices []slice
	var rss []float64
	var all []sample
	var measured time.Duration
	hwm := func() error {
		v, err := r.d.rssPeakMB()
		rss = append(rss, v)
		return err
	}
	if r.w.cold {
		// Passes until the run's time is used up; each is one daemon
		// lifetime and one slice.
		for begin := time.Now(); ; {
			if err := r.restart(); err != nil {
				return nil, err
			}
			samples, took := r.window(o, true)
			if err := hwm(); err != nil {
				return nil, err
			}
			slices = append(slices, newSlice(samples, took))
			all = append(all, samples...)
			measured += took
			if time.Since(begin).Seconds() >= o.seconds || (o.maxRequests > 0 && len(all) >= 2*o.maxRequests) {
				break
			}
		}
	} else {
		all, measured = r.window(o, false)
		if err := hwm(); err != nil {
			return nil, err
		}
		slices = sliceWindow(all, measured)
	}

	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	info := map[string]float64{"measured_s": measured.Seconds()}
	counts := map[string]int64{"requests": int64(len(all)), "slices": int64(len(slices))}
	values := map[string]float64{
		"setup_s":          medianOf(setups, func(s setupResult) float64 { return s.took.Seconds() }),
		"throughput_ops_s": medianOf(slices, func(s slice) float64 { return s.throughput }),
		"p50_ms":           medianOf(slices, func(s slice) float64 { return s.p50 }),
		"p99_ms":           medianOf(slices, func(s slice) float64 { return s.p99 }),
		"ingest_docs_s":    medianOf(setups, func(s setupResult) float64 { return s.ingest }),
		"disk_amp":         setups[len(setups)-1].diskAmp,
		"rss_peak_mb":      median(rss),
	}
	reads := readLatencies(all)
	counts["read_samples"] = int64(len(reads))
	if r.w.cold {
		// A pass holds too few samples for a percentile of its own.
		values["p50_ms"], values["p99_ms"] = quantile(reads, 0.50), quantile(reads, 0.99)
	}
	st, err := r.d.stats()
	if err != nil {
		return nil, err
	}
	counts["plan_cache_misses"] = int64(st.PlanCache.Misses)
	counts["plan_cache_hits"] = int64(st.PlanCache.Hits)
	if r.w.writer {
		if err := r.afterWrites(all, measured, values, info, counts); err != nil {
			return nil, err
		}
	}
	// Informational, not gated: how much WAL a restart replays depends on
	// where the 500 ms compaction tick fell during the load, and the
	// time moves 40-80% between identical runs with it.
	info["recover_ms"] = median(r.recovered)
	if err := r.stop(); err != nil {
		return nil, err
	}

	return r.report(endToEnd, values, info, counts), nil
}

// report closes a run: the contract result over specs, and beside it the
// informational fields, the counts and the failed requests.
func (r *runner) report(specs []metricSpec, values, info map[string]float64, counts map[string]int64) *report {
	info["error_rate"] = float64(len(r.failures)) / float64(r.attempted)
	return &report{Workload: r.w.name, Info: info, Counts: counts, Failures: r.failures, Result: result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   fill(specs, values),
	}}
}

// afterWrites closes write-mixed: the writer's ingest rate and single
// write latencies, the disk amplification after a final quiesce, and
// the durability check — SIGTERM, restart, and every sampled
// acknowledged write must read back as its last acknowledged value.
func (r *runner) afterWrites(all []sample, measured time.Duration, values, info map[string]float64, counts map[string]int64) error {
	var writes []float64
	docs := 0
	for _, s := range all {
		switch s.kind {
		case opPut:
			docs++
			writes = append(writes, ms(s.lat))
		case opDelete:
			writes = append(writes, ms(s.lat))
		case opBulk:
			docs += bulkLines
		}
	}
	values["ingest_docs_s"] = float64(docs) / measured.Seconds()
	info["write_p50_ms"], info["write_p99_ms"] = quantile(writes, 0.50), quantile(writes, 0.99)
	counts["write_samples"] = int64(len(writes))

	if err := r.d.quiesce(); err != nil {
		return err
	}
	live := r.w.corpus.bytes
	for pos, v := range r.wr.docs {
		if v.acked != nil {
			live += int64(len(v.acked) - len(r.w.corpus.bodies[pos]))
		}
	}
	for _, b := range r.wr.bulk {
		live += int64(len(b.body))
	}
	size, err := dirBytes(r.d.dir)
	if err != nil {
		return err
	}
	values["disk_amp"] = float64(size) / float64(live)

	for i := 0; i < writerRestarts; i++ {
		if err := r.restart(); err != nil {
			return err
		}
		if i == 0 {
			counts["durability_reads"] = int64(r.checkDurable())
		}
	}
	return nil
}

// checkDurable reads back, after a graceful restart, every document
// that went through DELETE + re-PUT, up to 1000 other overwritten
// documents and up to 200 bulk-loaded ones, and requires each to be the
// last acknowledged value. It returns the number of reads.
func (r *runner) checkDurable() int {
	c := r.newClient("durable", r.d.base)
	defer c.http.CloseIdleConnections()
	var repaired, rest []int
	for pos, v := range r.wr.docs {
		if v.repaired {
			repaired = append(repaired, pos)
		} else {
			rest = append(rest, pos)
		}
	}
	// Map order is random: sort, then take a seeded sample.
	sort.Ints(repaired)
	sort.Ints(rest)
	rand.New(rand.NewSource(1)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	reads := 0
	for _, pos := range append(repaired, rest[:min(len(rest), 1000)]...) {
		v := r.wr.docs[pos]
		if v.gone || v.pending != nil {
			continue // the window closed with this write unacknowledged
		}
		want := v.acked
		if want == nil {
			want = r.w.corpus.bodies[pos]
		}
		reads++
		c.doGet(r.ids[pos], want)
	}
	for i := 0; i < len(r.wr.bulk); i += max(len(r.wr.bulk)/200, 1) {
		reads++
		c.doGet(r.wr.bulk[i].id, r.wr.bulk[i].body)
	}
	r.attempted += reads
	return reads
}

// doGet reads one document and requires want.
func (c *client) doGet(id string, want []byte) {
	c.seq++
	rid := fmt.Sprintf("%s-%06d", c.name, c.seq)
	resp, err := c.http.Get(c.base + "/docs/" + id)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && (resp.StatusCode != http.StatusOK || !sameDoc(c.buf.Bytes(), want)) {
			err = fmt.Errorf("status %d, or not the last acknowledged value", resp.StatusCode)
		}
	}
	if err != nil {
		c.r.fail(rid, fmt.Errorf("GET /docs/%s after restart: %w", id, err))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slice is one stretch of a measured window — a second or so of a
// steady workload, a pass of query-cold — with its own throughput and
// read percentiles. A run reports the median over its slices, so one
// scheduler hiccup or compaction spike does not decide a run's number.
type slice struct {
	throughput float64 // correct responses per second
	p50, p99   float64 // read latency, ms
}

func newSlice(samples []sample, width time.Duration) slice {
	reads := readLatencies(samples)
	return slice{throughput: float64(countOK(samples)) / width.Seconds(), p50: quantile(reads, 0.50), p99: quantile(reads, 0.99)}
}

func countOK(samples []sample) int {
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	return ok
}

// minSliceReads keeps ten samples beyond a slice's 99th percentile.
const minSliceReads = 1000

// sliceWindow cuts a window into equal stretches of at least a second
// and at least minSliceReads read samples each.
func sliceWindow(all []sample, took time.Duration) []slice {
	n := min(int(took/time.Second), len(readLatencies(all))/minSliceReads)
	if n < 2 {
		return []slice{newSlice(all, took)}
	}
	width := took / time.Duration(n)
	parts := make([][]sample, n)
	for _, s := range all {
		if i := int(s.at / width); i < n {
			parts[i] = append(parts[i], s)
		}
	}
	out := make([]slice, n)
	for i, p := range parts {
		out[i] = newSlice(p, width)
	}
	return out
}

// readLatencies are the client-observed latencies of queries and GETs.
func readLatencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == opQuery || s.kind == opGet {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}
