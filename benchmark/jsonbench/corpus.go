package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// The generator and the oracle below are the benchmark's own: they
// import nothing from the repository, so the inputs and the expected
// answers cannot move with the code under test.

// Payload shape: containers of fanout 3, three levels deep, object keys
// drawn from k0..k11, 30% arrays, leaves a number below 100 or a string
// s0..s99 (about 300 bytes a document with its meta block).
const (
	payloadFanout = 3
	payloadDepth  = 3
	payloadKeys   = 12
	payloadArrays = 30
	leafRange     = 100
	regions       = 8
	rareEvery     = 128
)

// node is one value of a generated payload. Object members are kept
// sorted by key, which is the order the store writes documents back in,
// so an encoded document is byte-identical to what GET /docs/{id}
// answers.
type node struct {
	kind byte // 'o' object, 'a' array, 's' string, 'n' number
	keys []string
	kids []*node
	str  string
	num  int
}

func genPayload(r *rand.Rand, depth int) *node {
	if depth == 0 {
		if r.Intn(2) == 0 {
			return &node{kind: 'n', num: r.Intn(leafRange)}
		}
		return &node{kind: 's', str: "s" + strconv.Itoa(r.Intn(leafRange))}
	}
	if r.Intn(100) < payloadArrays {
		n := &node{kind: 'a'}
		for i := 0; i < payloadFanout; i++ {
			n.kids = append(n.kids, genPayload(r, depth-1))
		}
		return n
	}
	members := map[string]*node{}
	for i := 0; i < payloadFanout; i++ {
		k := "k" + strconv.Itoa(r.Intn(payloadKeys))
		if members[k] == nil {
			members[k] = genPayload(r, depth-1)
		}
	}
	n := &node{kind: 'o'}
	for k := range members {
		n.keys = append(n.keys, k)
	}
	sort.Strings(n.keys)
	for _, k := range n.keys {
		n.kids = append(n.kids, members[k])
	}
	return n
}

func (n *node) appendJSON(b []byte) []byte {
	switch n.kind {
	case 'n':
		return strconv.AppendInt(b, int64(n.num), 10)
	case 's':
		return append(append(append(b, '"'), n.str...), '"')
	case 'a':
		b = append(b, '[')
		for i, k := range n.kids {
			if i > 0 {
				b = append(b, ',')
			}
			b = k.appendJSON(b)
		}
		return append(b, ']')
	}
	b = append(b, '{')
	for i, k := range n.kids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), n.keys[i]...), '"', ':')
		b = k.appendJSON(b)
	}
	return append(b, '}')
}

// member returns the object member named key, or nil.
func (n *node) member(key string) *node {
	if n == nil || n.kind != 'o' {
		return nil
	}
	for i, k := range n.keys {
		if k == key {
			return n.kids[i]
		}
	}
	return nil
}

// descend follows keys from n through object members.
func (n *node) descend(keys ...string) *node {
	for _, k := range keys {
		n = n.member(k)
	}
	return n
}

// countDescendantPaths counts the nodes reached by descending any
// number of levels (objects and arrays) and then following keys: the
// JSONPath $..a.b selection.
func (n *node) countDescendantPaths(keys ...string) int {
	c := 0
	if n.descend(keys...) != nil {
		c = 1
	}
	for _, k := range n.kids {
		c += k.countDescendantPaths(keys...)
	}
	return c
}

// hasLeaf reports whether the string s is reachable from n, through
// object members only or through array elements too.
func (n *node) hasLeaf(s string, arrays bool) bool {
	switch n.kind {
	case 's':
		return n.str == s
	case 'a':
		if !arrays {
			return false
		}
	case 'n':
		return false
	}
	for _, k := range n.kids {
		if k.hasLeaf(s, arrays) {
			return true
		}
	}
	return false
}

// doc is one corpus document: its position i fixes tenant, region, seq
// and whether it carries "rare"; the payload is random.
type doc struct {
	i       int
	tenant  string
	payload *node
}

func (d *doc) region() int { return d.i % regions }
func (d *doc) rare() bool  { return d.i%rareEvery == 0 }

// encode renders the document in the store's canonical form with the
// given payload (an overwrite keeps meta and rare and swaps payload).
func (d *doc) encode(payload *node) []byte {
	b := make([]byte, 0, 384)
	b = append(b, `{"meta":{"region":"r`...)
	b = strconv.AppendInt(b, int64(d.region()), 10)
	b = append(b, `","seq":`...)
	b = strconv.AppendInt(b, int64(d.i), 10)
	b = append(b, `,"tenant":"`...)
	b = append(b, d.tenant...)
	b = append(b, `"},"payload":`...)
	b = payload.appendJSON(b)
	if d.rare() {
		b = append(b, `,"rare":`...)
		b = strconv.AppendInt(b, int64(d.i), 10)
	}
	return append(b, '}')
}

// asTree is the whole document as a node, for the oracle's walks that
// start at the document root.
func (d *doc) asTree() *node {
	meta := &node{kind: 'o', keys: []string{"region", "seq", "tenant"}, kids: []*node{
		{kind: 's', str: "r" + strconv.Itoa(d.region())},
		{kind: 'n', num: d.i},
		{kind: 's', str: d.tenant},
	}}
	root := &node{kind: 'o', keys: []string{"meta", "payload"}, kids: []*node{meta, d.payload}}
	if d.rare() {
		root.keys = append(root.keys, "rare")
		root.kids = append(root.kids, &node{kind: 'n', num: d.i})
	}
	return root
}

// corpus is the seeded collection every workload loads: n documents
// over `tenants` tenants, document i under tenant t<i mod tenants>.
type corpus struct {
	n, tenants int
	docs       []doc
	bodies     [][]byte // canonical JSON of each document
	bytes      int64    // total user JSON bytes
}

func newCorpus(seed int64, n, tenants int) *corpus {
	r := rand.New(rand.NewSource(seed))
	c := &corpus{n: n, tenants: tenants, docs: make([]doc, n), bodies: make([][]byte, n)}
	for i := range c.docs {
		d := &c.docs[i]
		d.i = i
		d.tenant = "t" + strconv.Itoa(i%tenants)
		d.payload = genPayload(r, payloadDepth)
		c.bodies[i] = d.encode(d.payload)
		c.bytes += int64(len(c.bodies[i]))
	}
	return c
}

// query is one query text with the answer the generator knows it has.
type query struct {
	Lang string
	Text string
	Mode string // "find" or "select"
	body []byte // the POST /query request body

	want    []int    // corpus positions that match, ascending
	wantIDs []string // their document ids, bound after the load
	nodes   []int    // select: nodes selected in each matching document
	indexed bool     // the access path the store must report
}

func (c *corpus) newQuery(lang, text, mode string, indexed bool, match func(d *doc) int) *query {
	q := &query{Lang: lang, Text: text, Mode: mode, indexed: indexed}
	body, err := json.Marshal(map[string]string{"lang": lang, "query": text, "mode": mode})
	if err != nil {
		panic(err)
	}
	q.body = body
	for i := range c.docs {
		if k := match(&c.docs[i]); k > 0 {
			q.want = append(q.want, i)
			q.nodes = append(q.nodes, k)
		}
	}
	return q
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// regionFor picks a region some documents of the tenant have: i = x mod
// tenants and i = y mod 8 have a common solution only for some y.
func (c *corpus) regionFor(x, pick int) int {
	var ys []int
	seen := map[int]bool{}
	for i := x; i < c.n; i += c.tenants {
		if y := i % regions; !seen[y] {
			seen[y] = true
			ys = append(ys, y)
		}
	}
	sort.Ints(ys)
	return ys[pick%len(ys)]
}

// tenantQuery writes "tenant = tx [and region = ry]" in one of the three
// front ends that can express it; y < 0 leaves the region out. (A
// JSONPath filter selects array elements only, so no JSONPath text can
// state a predicate on the meta object.)
func (c *corpus) tenantQuery(lang string, x, y int) *query {
	t, r := "t"+strconv.Itoa(x), "r"+strconv.Itoa(y)
	var text string
	switch lang {
	case "mongo":
		text = fmt.Sprintf(`{"meta.tenant":%q}`, t)
		if y >= 0 {
			text = fmt.Sprintf(`{"meta.tenant":%q,"meta.region":%q}`, t, r)
		}
	case "jnl":
		text = fmt.Sprintf(`eq(/meta/tenant, %q)`, t)
		if y >= 0 {
			text += fmt.Sprintf(` && eq(/meta/region, %q)`, r)
		}
	case "jsl":
		text = fmt.Sprintf(`some("meta", some("tenant", eq(%q)))`, t)
		if y >= 0 {
			text = fmt.Sprintf(`some("meta", some("tenant", eq(%q)) && some("region", eq(%q)))`, t, r)
		}
	default:
		panic("tenantQuery: " + lang)
	}
	return c.newQuery(lang, text, "find", true, func(d *doc) int {
		return b2i(d.i%c.tenants == x && (y < 0 || d.region() == y))
	})
}

// rareQuery writes "rare >= k".
func (c *corpus) rareQuery(lang string, k int) *query {
	var text string
	switch lang {
	case "mongo":
		text = fmt.Sprintf(`{"rare":{"$gte":%d}}`, k)
	case "jsl":
		text = fmt.Sprintf(`some("rare", number && min(%d))`, k)
	default:
		panic("rareQuery: " + lang)
	}
	return c.newQuery(lang, text, "find", true, func(d *doc) int { return b2i(d.rare() && d.i >= k) })
}

// payloadPaths lists the two- and three-key paths under payload that
// between lo and hi documents have, in a seeded order: the selective
// path-presence predicates JSONPath can state over this corpus.
func (c *corpus) payloadPaths(r *rand.Rand, lo, hi int) [][]string {
	counts := map[string]int{}
	var walk func(n *node, prefix string, depth int)
	walk = func(n *node, prefix string, depth int) {
		if n.kind != 'o' {
			return
		}
		for i, k := range n.keys {
			p := prefix + "." + k
			if depth >= 1 {
				counts[p]++
			}
			if depth < 2 {
				walk(n.kids[i], p, depth+1)
			}
		}
	}
	for i := range c.docs {
		walk(c.docs[i].payload, "", 0)
	}
	var names []string
	for p, k := range counts {
		if k >= lo && k <= hi {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	out := make([][]string, len(names))
	for i, p := range names {
		var keys []string
		start := 1
		for j := 1; j <= len(p); j++ {
			if j == len(p) || p[j] == '.' {
				keys = append(keys, p[start:j])
				start = j + 1
			}
		}
		out[i] = keys
	}
	return out
}

// jsonpathOf appends .key steps to prefix; the prefix "$." makes the
// first step a recursive descent ($..a.b).
func jsonpathOf(prefix string, keys []string) string {
	for _, k := range keys {
		prefix += "." + k
	}
	return prefix
}

// indexedPool is the query-warm pool: `size` entries over at most that
// many distinct texts (the plan cache holds 256), a quarter in each
// front end, every one answered through the index with a few dozen to a
// few hundred results. With payload false the pool leaves out the texts
// whose answer an overwritten payload would change (write-mixed) and
// gives their slots to mongo tenant queries.
func (c *corpus) indexedPool(r *rand.Rand, size int, payload bool) []*query {
	order, next := r.Perm(c.tenants), 0
	byTenant := func(lang string, withRegion bool, v int) *query {
		x := order[next%len(order)]
		next++
		if withRegion {
			return c.tenantQuery(lang, x, c.regionFor(x, v))
		}
		return c.tenantQuery(lang, x, -1)
	}
	var paths [][]string
	if payload {
		paths = c.payloadPaths(r, c.n/400, c.n/160) // 25 to 62 documents at the committed size
	}
	pool := make([]*query, size)
	for k := range pool {
		lang, v := [...]string{"mongo", "jnl", "jsl", "jsonpath"}[k%4], k/4
		switch {
		case lang == "jsonpath" && v < 2:
			pool[k] = c.newQuery(lang, "$.rare", [...]string{"select", "find"}[v], true,
				func(d *doc) int { return b2i(d.rare()) })
		case lang == "jsonpath" && len(paths) > 0:
			keys := paths[(v/2)%len(paths)]
			pool[k] = c.newQuery(lang, jsonpathOf("$.payload", keys), [...]string{"select", "find"}[v%2], true,
				func(d *doc) int { return b2i(d.payload.descend(keys...) != nil) })
		case lang == "jsonpath":
			pool[k] = byTenant("mongo", false, v)
		case lang != "jnl" && v%4 == 3:
			pool[k] = c.rareQuery(lang, v/4*(c.n/16))
		default:
			pool[k] = byTenant(lang, v%2 == 1, v)
		}
	}
	return pool
}

// coldPool is one query-cold pass: one tenant query per tenant, the
// front ends in rotation, so no two queries of a pass share a text or
// touch a common document.
func (c *corpus) coldPool() []*query {
	pool := make([]*query, c.tenants)
	for x := range pool {
		pool[x] = c.tenantQuery([...]string{"mongo", "jnl", "jsl"}[x%3], x, -1)
	}
	return pool
}

// scanPool is the scan-eval pool: texts that yield no index facts
// (negation, recursive descent, Kleene star, a recursive definition),
// so the store evaluates every document.
func (c *corpus) scanPool(r *rand.Rand, size int) []*query {
	leaves := r.Perm(leafRange)
	paths := c.payloadPaths(r, c.n/200+2, c.n/5)
	var pool []*query
	for k := 0; len(pool) < size; k++ {
		v := k / 4
		switch k % 4 {
		case 0:
			bound, y := 100+8*v, v%regions
			text := fmt.Sprintf(`{"meta.seq":{"$not":{"$gte":%d}},"meta.region":{"$ne":"r%d"}}`, bound, y)
			pool = append(pool, c.newQuery("mongo", text, "find", false,
				func(d *doc) int { return b2i(d.i < bound && d.region() != y) }))
		case 1:
			if len(paths) == 0 {
				continue
			}
			keys := paths[(v/2)%len(paths)]
			keys = keys[len(keys)-2:]
			mode := [...]string{"select", "find"}[v%2]
			pool = append(pool, c.newQuery("jsonpath", jsonpathOf("$.", keys), mode, false,
				func(d *doc) int { return d.asTree().countDescendantPaths(keys...) }))
		case 2:
			s := "s" + strconv.Itoa(leaves[v%leafRange])
			text := fmt.Sprintf(`[(/~".*")* <eq(eps, %q)>]`, s)
			pool = append(pool, c.newQuery("jnl", text, "find", false,
				func(d *doc) int { return b2i(d.payload.hasLeaf(s, false)) }))
		case 3:
			s := "s" + strconv.Itoa(leaves[(v+leafRange/2)%leafRange])
			text := fmt.Sprintf(`def g = eq(%q) || some(~".*", g) || some([0:], g) ; g`, s)
			pool = append(pool, c.newQuery("jsl", text, "find", false,
				func(d *doc) int { return b2i(d.payload.hasLeaf(s, true)) }))
		}
	}
	return pool
}
