package main

import (
	"fmt"
	"time"
)

// Probe sizes: documents tokenized, built, encoded and read; documents
// put one by one (the same sample is the one bulk batch); queries and
// documents of the executor probe.
const (
	probeDocs     = 1000
	probePuts     = 500
	probeQueries  = 16
	probeEvalDocs = 200
	probeEvalReps = 20 // passes over a query's documents, so the executor probe runs for tens of ms
)

// prober times each layer's public functions directly, on inputs drawn
// from the workload itself — its corpus documents and its query texts —
// and on the data dir the replays left. Every call is a span.
type prober struct {
	r      *runner
	rc     *recorder
	dir    string
	sample []int  // corpus positions probed
	trees  []tree // their documents, built by the codec probe
	texts  []*query

	values, info map[string]float64
	counts       map[string]int64
}

func (r *runner) probe(dir string, rc *recorder) (values, info map[string]float64, counts map[string]int64, err error) {
	p := &prober{r: r, rc: rc, dir: dir, texts: r.w.texts(),
		values: map[string]float64{}, info: map[string]float64{}, counts: map[string]int64{}}
	c := r.w.corpus
	for i := 0; i < c.n && len(p.sample) < probeDocs; i += max(c.n/probeDocs, 1) {
		p.sample = append(p.sample, i)
	}
	// The store is opened twice: once for the write side, then afresh
	// for the read side, so that Store.Get's first touch of a segment
	// document is a real first touch.
	for _, step := range []func() error{p.codecs, p.compiles, p.writes, p.reads} {
		if err := step(); err != nil {
			return nil, nil, nil, err
		}
	}
	return p.values, p.info, p.counts, nil
}

// codecs probes stream and jsontree: the ingest path's tokenizer and
// tree builder, the read path's encoder.
func (p *prober) codecs() error {
	c := p.r.w.corpus
	var tokenizeNS, buildNS, buildTotalNS, encodeNS []float64
	var docBytes, encBytes int64
	var tokTotal, encTotal time.Duration
	p.trees = make([]tree, len(p.sample))
	for k, pos := range p.sample {
		id, body := fmt.Sprintf("doc-%d", pos), c.bodies[pos]
		tok, err := p.rc.timed(id, "stream.tokenize", func() error { return tokenize(body) })
		if err != nil {
			return err
		}
		build, err := p.rc.timed(id, "jsontree.build", func() (err error) { p.trees[k], err = buildTree(body); return err })
		if err != nil {
			return err
		}
		var n int64
		enc, err := p.rc.timed(id, "jsontree.encode", func() (err error) { n, err = encode(p.trees[k]); return err })
		if err != nil {
			return err
		}
		docBytes, encBytes = docBytes+int64(len(body)), encBytes+n
		tokTotal, encTotal = tokTotal+tok, encTotal+enc
		tokenizeNS = append(tokenizeNS, float64(tok))
		buildTotalNS = append(buildTotalNS, float64(build))
		buildNS = append(buildNS, float64(build-tok))
		encodeNS = append(encodeNS, float64(enc))
	}
	p.values["stream.tokenize_mb_s"] = float64(docBytes) / 1e6 / tokTotal.Seconds()
	p.values["jsontree.build_us"] = median(buildNS) / 1e3
	p.values["jsontree.encode_mb_s"] = float64(encBytes) / 1e6 / encTotal.Seconds()
	p.info["stream.tokenize_us"] = median(tokenizeNS) / 1e3
	p.info["jsontree.build_total_us"] = median(buildTotalNS) / 1e3
	p.info["jsontree.encode_us"] = median(encodeNS) / 1e3
	return nil
}

// compiles probes engine and the front ends under it: every distinct
// text of the workload, compiled on a fresh engine (miss) and again
// (hit).
func (p *prober) compiles() error {
	byLang := map[string][]float64{}
	var miss, hit, parse, qirc, sem []float64
	for k, q := range p.texts {
		start := time.Now()
		ct, err := compileFresh(q.Lang, q.Text)
		if err != nil {
			return fmt.Errorf("compile %s %q: %w", q.Lang, q.Text, err)
		}
		// The engine's own trace gives the stages' durations; lay them
		// end to end under the miss.
		id := fmt.Sprintf("text-%d", k)
		parent := p.rc.add(0, id, "engine.compile_miss", start, start.Add(ct.miss), map[string]any{"lang": q.Lang})
		at := start
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"engine.parse", ct.parse}, {"engine.qir_compile", ct.qirCompile}, {"engine.semantic", ct.semantic}} {
			p.rc.add(parent, id, st.name, at, at.Add(st.d), nil)
			at = at.Add(st.d)
		}
		p.rc.add(0, id, "engine.compile_hit", start.Add(ct.miss), start.Add(ct.miss+ct.hit), nil)
		miss, hit = append(miss, us(ct.miss)), append(hit, us(ct.hit))
		parse, qirc, sem = append(parse, us(ct.parse)), append(qirc, us(ct.qirCompile)), append(sem, us(ct.semantic))
		byLang[q.Lang] = append(byLang[q.Lang], us(ct.miss))
	}
	p.values["engine.compile_miss_us"], p.values["engine.compile_hit_us"] = median(miss), median(hit)
	p.values["engine.parse_us"], p.values["engine.qir_compile_us"], p.values["engine.semantic_us"] = median(parse), median(qirc), median(sem)
	for lang, xs := range byLang {
		p.info["engine.compile_miss_us."+lang] = median(xs)
	}
	p.counts["distinct_texts"] = int64(len(p.texts))
	return nil
}

// open opens the data dir as one store.open span.
func (p *prober) open(request string) (*layers, error) {
	start := time.Now()
	lay, opened, err := openLayers(p.dir, p.r.w.snapshotEvery, false)
	if err == nil {
		p.rc.add(0, request, "store.open", start, start.Add(opened), nil)
	}
	return lay, err
}

// writes probes the store's write side: PutTree one by one, one
// BulkNDJSON batch, the WAL bytes both cost, then a forced Snapshot.
func (p *prober) writes() (err error) {
	lay, err := p.open("probe-open-1")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := lay.close(); err == nil {
			err = cerr
		}
	}()
	c := p.r.w.corpus
	before := lay.counters()
	var putNS []float64
	var userBytes int64
	for k, pos := range p.sample[:min(len(p.sample), probePuts)] {
		d, err := p.rc.timed(fmt.Sprintf("doc-%d", pos), "store.put", func() error { return lay.putTree(p.r.ids[pos], p.trees[k]) })
		if err != nil {
			return err
		}
		putNS = append(putNS, float64(d))
		userBytes += int64(len(c.bodies[pos]))
	}
	var batch []byte
	for _, pos := range p.sample {
		batch = append(append(batch, c.bodies[pos]...), '\n')
	}
	userBytes += int64(len(batch))
	stored := 0
	bulkTook, err := p.rc.timed("bulk", "store.bulk", func() (err error) { stored, err = lay.bulk(batch); return err })
	if err == nil && stored != len(p.sample) {
		err = fmt.Errorf("bulk probe stored %d of %d documents", stored, len(p.sample))
	}
	if err != nil {
		return err
	}
	wrote := addDelta(storeCounters{}, before, lay.counters())
	snapTook, err := p.rc.timed("snapshot", "store.snapshot", lay.snapshot)
	if err != nil {
		return err
	}
	p.values["store.put_us"] = median(putNS) / 1e3
	p.values["store.bulk_docs_s"] = float64(stored) / bulkTook.Seconds()
	p.values["store.wal_bytes_per_user_byte"] = float64(wrote.walBytes) / float64(userBytes)
	p.values["store.snapshot_s"] = snapTook.Seconds()
	p.values["store.snapshot_bytes"] = float64(lay.counters().segmentBytes)
	return nil
}

// reads probes the store's read side and qir on a fresh open, so
// nothing is resolved yet: Store.Get's first and second touch, then the
// executor alone over the documents the store would hand it — an
// indexed query's candidates are its matches, a scan's are the whole
// collection.
func (p *prober) reads() error {
	lay, err := p.open("probe-open-2")
	if err != nil {
		return err
	}
	defer lay.close()
	ids := p.r.ids
	for _, name := range []string{"store.get_cold", "store.get_warm"} {
		var ns []float64
		for _, pos := range p.sample {
			var found bool
			d, _ := p.rc.timed(fmt.Sprintf("doc-%d", pos), name, func() error { _, found = lay.get(ids[pos]); return nil })
			if found { // write-mixed's replay may have left a DELETE + re-PUT pair open here
				ns = append(ns, float64(d))
			}
		}
		p.values[name+"_us"] = median(ns) / 1e3
	}

	var evalTotal time.Duration
	evaluated := 0
	var scratch nodeIDs
	for k := 0; k < len(p.texts); k += max(len(p.texts)/probeQueries, 1) {
		q := p.texts[k]
		compiled, err := lay.compile(q.Lang, q.Text)
		if err != nil {
			return err
		}
		candidates := p.sample
		if q.indexed {
			candidates = q.want
		}
		var docs []tree
		for _, pos := range candidates[:min(len(candidates), probeEvalDocs)] {
			if t, ok := lay.get(ids[pos]); ok {
				docs = append(docs, t)
			}
		}
		start := time.Now()
		for rep := 0; rep < probeEvalReps; rep++ {
			for _, t := range docs {
				if err := lay.evalDoc(compiled, t, q.Mode, &scratch); err != nil {
					return err
				}
			}
		}
		end := time.Now()
		n := probeEvalReps * len(docs)
		p.rc.add(0, fmt.Sprintf("text-%d", k), "qir.eval", start, end, map[string]any{"docs": int64(n)})
		evalTotal += end.Sub(start)
		evaluated += n
	}
	p.values["qir.eval_us_per_doc"] = us(evalTotal) / float64(evaluated)
	p.values["qir.docs_s"] = float64(evaluated) / evalTotal.Seconds()
	return nil
}

// texts lists the workload's distinct query texts, in first-use order.
func (w *workload) texts() []*query {
	seen := map[[2]string]bool{}
	var out []*query
	for _, seq := range append([][]request{w.warm}, w.clients[:]...) {
		for _, req := range seq {
			if req.q != nil && !seen[[2]string{req.q.Lang, req.q.Text}] {
				seen[[2]string{req.q.Lang, req.q.Text}] = true
				out = append(out, req.q)
			}
		}
	}
	return out
}
