package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
)

type opKind uint8

const (
	opQuery opKind = iota
	opGet
	opPut
	opDelete
	opBulk
)

func (k opKind) String() string {
	return [...]string{"query", "get", "put", "delete", "bulk"}[k]
}

// latestWrite as a GET's document means "whichever document the writer
// most recently had acknowledged": the one read whose target is chosen
// when it is sent.
const latestWrite = -1

// request is one element of a client's fixed sequence.
type request struct {
	kind  opKind
	q     *query // opQuery
	doc   int    // opGet, opPut, opDelete: corpus position (or latestWrite)
	body  []byte // opPut: the document; opBulk: NDJSON
	lines int    // opBulk: documents in body
}

// size scales a workload. The committed sizes are sized so that one
// set-up takes about two seconds on the 2-core reference box and every
// measured second holds a few hundred to a few thousand requests.
type size struct {
	docs, tenants int
	seqLen        int // requests in each client's sequence
	poolLen       int // query-pool entries
	replay        int // requests the traced run replays
}

// workload is one traffic mix: a corpus, the daemon's compaction
// threshold, and one fixed request sequence per closed-loop client.
// Clients replay their sequence in a cycle until the measured time is
// up, except on query-cold, where one pass over the sequences is one
// daemon lifetime.
type workload struct {
	name          string
	corpus        *corpus
	snapshotEvery int
	restart       bool // set-up ends with SIGTERM, restart and a warm pass
	cold          bool // every pass starts with SIGTERM and restart
	writer        bool // client 0 writes, client 1 reads (write-mixed)
	clients       [2][]request
	warm          []request // the untimed warm pass: every pool text once
	replay        int       // requests the traced run replays
}

// workloadWhy is each workload's one-line reason, as BENCHMARK.json
// records it.
var workloadWhy = map[string]string{
	"query-warm":  "restarted daemon at steady state: plan-cache hits, indexed probes over segment and memtable tiers, cached resolves; compile, parse and WAL idle",
	"query-cold":  "every pass follows a restart: each request misses the plan cache and first-touches its segment documents, and every cycle pays recovery",
	"scan-eval":   "only non-indexable queries, so the QIR executor and the shard fan-out evaluate every document and the index and parser do almost nothing",
	"write-mixed": "one client overwrites, deletes and bulk-loads while another reads the same store, with background compactions inside the window",
}

var workloadNames = []string{"query-warm", "query-cold", "scan-eval", "write-mixed"}

// committedSize is the size BENCHMARK.json's numbers are measured at.
func committedSize(name string) size {
	switch name {
	case "scan-eval":
		// Every request evaluates the whole corpus: fewer of them.
		return size{docs: 2000, tenants: 20, seqLen: 1024, poolLen: 64, replay: 400}
	case "query-cold":
		// Five passes of one query per tenant.
		return size{docs: 10000, tenants: 100, replay: 500}
	case "write-mixed":
		return size{docs: 10000, tenants: 100, seqLen: 8192, poolLen: 128, replay: 2000}
	}
	return size{docs: 10000, tenants: 100, seqLen: 4096, poolLen: 128, replay: 2000}
}

func newWorkload(name string, seed int64, sz size) (*workload, error) {
	if _, ok := workloadWhy[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	c := newCorpus(seed, sz.docs, sz.tenants)
	// 16 shards, about three compactions a shard while the corpus loads.
	w := &workload{name: name, corpus: c, snapshotEvery: max(sz.docs/50, 1), replay: sz.replay}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	mix := func(r *rand.Rand, pool []*query, n int, getShare float64, latest bool) []request {
		seq := make([]request, n)
		for i := range seq {
			switch {
			case r.Float64() >= getShare:
				seq[i] = request{kind: opQuery, q: pool[r.Intn(len(pool))]}
			case latest && r.Intn(2) == 0:
				seq[i] = request{kind: opGet, doc: latestWrite}
			default:
				seq[i] = request{kind: opGet, doc: r.Intn(c.n)}
			}
		}
		return seq
	}
	asRequests := func(pool []*query) []request {
		out := make([]request, len(pool))
		for i, q := range pool {
			out[i] = request{kind: opQuery, q: q}
		}
		return out
	}
	switch name {
	case "query-warm":
		w.restart = true
		pool := c.indexedPool(r, sz.poolLen, true)
		w.warm = asRequests(pool)
		for i := range w.clients {
			w.clients[i] = mix(r, pool, sz.seqLen, 0.30, false)
		}
	case "query-cold":
		w.cold = true
		for i, req := range asRequests(c.coldPool()) {
			w.clients[i%2] = append(w.clients[i%2], req)
		}
	case "scan-eval":
		w.restart = true
		pool := c.scanPool(r, sz.poolLen)
		w.warm = asRequests(pool)
		for i := range w.clients {
			w.clients[i] = mix(r, pool, sz.seqLen, 0, false)
		}
	case "write-mixed":
		w.writer = true
		w.clients[0] = c.writeSequence(r, sz.seqLen)
		w.clients[1] = mix(r, c.indexedPool(r, sz.poolLen, false), sz.seqLen/2, 0.50, true)
	}
	return w, nil
}

// Write-mixed's writer: per thousand requests about 950 overwrites of a
// uniformly chosen document with a fresh payload, 25 DELETE + re-PUT
// pairs, and one bulk batch of new documents under tenants no query
// names.
const (
	bulkEvery = 1000
	bulkLines = 500
	pairOneIn = 40
)

func (c *corpus) writeSequence(r *rand.Rand, n int) []request {
	seq := make([]request, 0, n)
	extra, nextBulk := 0, bulkEvery/2
	for len(seq) < n {
		if len(seq) >= nextBulk {
			nextBulk += bulkEvery
			var body []byte
			for k := 0; k < bulkLines; k++ {
				if (c.n+extra)%rareEvery == 0 {
					extra++ // a new document must not join the answer of a "rare" query
				}
				d := doc{i: c.n + extra, tenant: "x" + strconv.Itoa(extra%7)}
				body = append(append(body, d.encode(genPayload(r, payloadDepth))...), '\n')
				extra++
			}
			seq = append(seq, request{kind: opBulk, body: body, lines: bulkLines})
			continue
		}
		d := &c.docs[r.Intn(c.n)]
		put := request{kind: opPut, doc: d.i, body: d.encode(genPayload(r, payloadDepth))}
		if r.Intn(pairOneIn) == 0 && len(seq)+1 < n {
			seq = append(seq, request{kind: opDelete, doc: d.i})
		}
		seq = append(seq, put)
	}
	return seq
}

// hash identifies the workload's inputs: the corpus and every client's
// request sequence, byte for byte.
func (w *workload) hash() string {
	h := sha256.New()
	for _, b := range w.corpus.bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	for _, seq := range append(w.clients[:], w.warm) {
		for _, req := range seq {
			fmt.Fprintf(h, "%d %d ", req.kind, req.doc)
			if req.q != nil {
				h.Write(req.q.body)
			}
			h.Write(req.body)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
