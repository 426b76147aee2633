package store

// segment.go: the immutable mmap'd read tier. A segment file is one
// shard's complete state at the instant a WAL generation started —
// the snapshot role snap-*.snap used to play — but instead of a
// replay log of documents it holds the shard's dictionary and its
// inverted index in their on-wire layout, so Open maps the file and
// serves from it directly: no JSON is parsed and no posting list is
// rebuilt at startup. Posting lists stay block-compressed
// (postings_codec.go) and are intersected in place via their skip
// tables. An exact find (engine.Plan.FindExact) never parses a segment
// document: each candidate's facts are checked on its stored bytes
// (jsontree.PathFact.HoldsJSON) under the shard read lock, and a match
// leaves as its ID alone. Every other read parses the document into a
// tree on first access and caches it per ordinal. A parsed tree never
// points into the mapping: jsontree.Parse copies keys and strings into
// the tree's own byte heap, so a cached document is three pointer-free
// arrays behind one Tree, which may outlive the file — compaction
// hands it to the next reader and then unmaps this one. IDs likewise
// never alias the mapping: the ID section is copied into one string at
// open, and every ID handed out is a substring of it.
//
// On-disk layout (all integers little-endian):
//
//	magic "JLSEG1\n"
//	docs      section: concatenated compact-JSON document bytes
//	doc index: (n+1) × u64 offsets into the docs section
//	ids       section: concatenated document IDs
//	id index:  (n+1) × u64 offsets into the ids section
//	postings  section: per term, skip table + delta+varint blocks
//	term dir:  terms × (u64 hash | u64 postings offset | u32 count),
//	           sorted by hash for binary search
//	footer (88 bytes, fixed):
//	  6 × u64 section offsets, u64 posting entries, u64 auto-ID seq,
//	  u32 doc count, u32 term count, u32 block size,
//	  u32 crc32(file[0:crc]), magic "JLSEGF1\n"
//
// Ordinals are assigned in sorted-ID order when the segment is
// written, so ID lookup is a binary search over the id index and a
// shard's candidate enumeration is ID-ordered for free. The footer
// CRC covers the entire file, and openSegment verifies it before the
// segment is trusted — a torn footer or a flipped block anywhere
// invalidates the whole file and recovery falls back to the previous
// generation, exactly like an invalid snapshot.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"jsonlogic/internal/jsontree"
)

const (
	segMagic       = "JLSEG1\n"
	segFooterMagic = "JLSEGF1\n"
	segFooterSize  = 6*8 + 8 + 8 + 4 + 4 + 4 + 4 + len(segFooterMagic)
	termDirEntry   = 8 + 8 + 4
)

func segFilePath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%010d.seg", gen))
}

func segTempPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%010d.tmp", gen))
}

// segmentReader serves one shard's immutable segment. All methods are
// safe for concurrent use: the underlying bytes never change and the
// resolve cache is a slice of atomic pointers. Close (munmap) must
// not race reads; the owning shard swaps readers under its write
// lock and closes the old one after the swap.
type segmentReader struct {
	path   string
	gen    uint64
	data   []byte
	mapped bool

	n              int // document count
	termCount      int
	blockSize      int
	seq            uint64 // bulk auto-ID high-water mark at write time
	postingEntries uint64

	docs, docIdx, ids, idIdx, postings, termDir []byte
	// idText is the ids section copied to the heap at open; id slices
	// it, so an ID outlives the mapping without a copy per hit.
	idText string

	// cache holds lazily parsed documents; openSegment sizes it but
	// parses nothing, so open cost stays independent of parse cost.
	cache []atomic.Pointer[jsontree.Tree]
}

// openSegment maps (or, on platforms without mmap, reads) the segment
// at path and validates it end-to-end: magic, footer, whole-file CRC,
// section bounds and index monotonicity. Any defect fails the open
// with nothing trusted — recovery treats it like an invalid snapshot
// and falls back. The store always passes noMmap false — which path
// runs is mapFile's build-time choice — and the differential tests
// pass true to run the read-into-heap path on a platform that maps.
func openSegment(fs VFS, path string, gen uint64, noMmap bool) (*segmentReader, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic)+segFooterSize) {
		return nil, fmt.Errorf("%s: too short for a segment (%d bytes)", path, size)
	}
	var data []byte
	var mapped bool
	if noMmap {
		data, err = readSegmentIntoHeap(f, size)
	} else {
		data, mapped, err = mapFile(f, size)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: map: %w", path, err)
	}
	sr := &segmentReader{path: path, gen: gen, data: data, mapped: mapped}
	if err := sr.validate(); err != nil {
		sr.close()
		return nil, err
	}
	sr.idText = string(sr.ids)
	sr.cache = make([]atomic.Pointer[jsontree.Tree], sr.n)
	return sr, nil
}

// readSegmentIntoHeap is the no-mmap path: the !unix mapFile, and
// openSegment's noMmap on any platform.
func readSegmentIntoHeap(f File, size int64) ([]byte, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, err
	}
	return data, nil
}

// validate checks the whole file: magic, footer magic, the CRC over
// every byte before the CRC field, and the structural consistency of
// the section offsets and both per-document indexes.
func (sr *segmentReader) validate() error {
	data := sr.data
	if string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("%s: bad segment magic", sr.path)
	}
	ft := data[len(data)-segFooterSize:]
	if string(ft[segFooterSize-len(segFooterMagic):]) != segFooterMagic {
		return fmt.Errorf("%s: bad or torn segment footer", sr.path)
	}
	crcOff := len(data) - len(segFooterMagic) - 4
	if crc32.ChecksumIEEE(data[:crcOff]) != binary.LittleEndian.Uint32(data[crcOff:]) {
		return fmt.Errorf("%s: segment CRC mismatch", sr.path)
	}
	le := binary.LittleEndian
	docsOff := le.Uint64(ft[0:])
	docIdxOff := le.Uint64(ft[8:])
	idsOff := le.Uint64(ft[16:])
	idIdxOff := le.Uint64(ft[24:])
	postingsOff := le.Uint64(ft[32:])
	termDirOff := le.Uint64(ft[40:])
	sr.postingEntries = le.Uint64(ft[48:])
	sr.seq = le.Uint64(ft[56:])
	sr.n = int(le.Uint32(ft[64:]))
	sr.termCount = int(le.Uint32(ft[68:]))
	sr.blockSize = int(le.Uint32(ft[72:]))

	end := uint64(len(data) - segFooterSize)
	offs := []uint64{uint64(len(segMagic)), docsOff, docIdxOff, idsOff, idIdxOff, postingsOff, termDirOff, end}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] || offs[i] > end {
			return fmt.Errorf("%s: segment section offsets out of order", sr.path)
		}
	}
	if sr.n < 0 || sr.blockSize < 1 || sr.blockSize > maxBlockSize {
		return fmt.Errorf("%s: implausible segment header (docs %d, block %d)", sr.path, sr.n, sr.blockSize)
	}
	if docIdxOff+uint64(sr.n+1)*8 != idsOff || idIdxOff+uint64(sr.n+1)*8 != postingsOff {
		return fmt.Errorf("%s: document index sized wrong for %d documents", sr.path, sr.n)
	}
	if termDirOff+uint64(sr.termCount)*termDirEntry != end {
		return fmt.Errorf("%s: term directory sized wrong for %d terms", sr.path, sr.termCount)
	}
	sr.docs = data[docsOff:docIdxOff]
	sr.docIdx = data[docIdxOff:idsOff]
	sr.ids = data[idsOff:idIdxOff]
	sr.idIdx = data[idIdxOff:postingsOff]
	sr.postings = data[postingsOff:termDirOff]
	sr.termDir = data[termDirOff:end]
	// Both per-document indexes must be monotone and in-section, so
	// the accessors below can slice without bounds anxiety.
	for _, ix := range []struct {
		idx     []byte
		section int
		what    string
	}{{sr.docIdx, len(sr.docs), "doc"}, {sr.idIdx, len(sr.ids), "id"}} {
		prev := uint64(0)
		for i := 0; i <= sr.n; i++ {
			off := le.Uint64(ix.idx[i*8:])
			if off < prev || off > uint64(ix.section) {
				return fmt.Errorf("%s: %s index entry %d out of order", sr.path, ix.what, i)
			}
			prev = off
		}
	}
	// Term directory: hashes strictly increasing (binary-searchable),
	// offsets inside the postings section.
	prevHash := uint64(0)
	for i := 0; i < sr.termCount; i++ {
		e := sr.termDir[i*termDirEntry:]
		h := le.Uint64(e)
		if i > 0 && h <= prevHash {
			return fmt.Errorf("%s: term directory not sorted at entry %d", sr.path, i)
		}
		prevHash = h
		if off := le.Uint64(e[8:]); off > uint64(len(sr.postings)) {
			return fmt.Errorf("%s: term directory entry %d offset out of range", sr.path, i)
		}
	}
	return nil
}

// close releases the mapping. The caller guarantees no concurrent
// reader (the shard lock orders swap-then-close).
func (sr *segmentReader) close() error {
	data := sr.data
	sr.data = nil
	return unmapFile(data, sr.mapped)
}

func (sr *segmentReader) id(ord ordinal) string {
	le := binary.LittleEndian
	return sr.idText[le.Uint64(sr.idIdx[ord*8:]):le.Uint64(sr.idIdx[(ord+1)*8:])]
}

func (sr *segmentReader) docBytes(ord ordinal) []byte {
	le := binary.LittleEndian
	return sr.docs[le.Uint64(sr.docIdx[ord*8:]):le.Uint64(sr.docIdx[(ord+1)*8:])]
}

// lookup binary-searches the ID index (ordinals are ID-sorted by
// construction) without allocating.
func (sr *segmentReader) lookup(id string) (ordinal, bool) {
	lo, hi := 0, sr.n
	for lo < hi {
		mid := (lo + hi) / 2
		if sr.id(ordinal(mid)) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < sr.n && sr.id(ordinal(lo)) == id {
		return ordinal(lo), true
	}
	return 0, false
}

// resolve returns ordinal ord's document, parsing and caching its
// tree on first access. Concurrent first accesses may parse twice;
// exactly one result wins the cache and trees are immutable, so either
// is correct.
func (sr *segmentReader) resolve(ord ordinal) (docPair, error) {
	if t := sr.cache[ord].Load(); t != nil {
		return docPair{id: sr.id(ord), tree: t}, nil
	}
	// The string conversion is a transient copy Parse's string input
	// needs; the tree keeps none of it, holding its keys and strings
	// in a heap of its own. Dropping the copy and the parse altogether
	// is the on-disk tree format's job, not this cache's.
	t, err := jsontree.Parse(string(sr.docBytes(ord)))
	if err != nil {
		// The file was CRC-valid at open; reaching here means the
		// bytes changed underneath the map or a writer bug.
		return docPair{}, fmt.Errorf("%s: document %q: %w", sr.path, sr.id(ord), err)
	}
	if !sr.cache[ord].CompareAndSwap(nil, t) {
		t = sr.cache[ord].Load()
	}
	return docPair{id: sr.id(ord), tree: t}, nil
}

// matches reports whether ordinal ord's stored text satisfies every
// fact, without parsing it. An unreadable document is an error, as in
// resolve.
func (sr *segmentReader) matches(ord ordinal, facts []jsontree.PathFact) (bool, error) {
	doc := sr.docBytes(ord)
	for _, f := range facts {
		ok, err := f.HoldsJSON(doc)
		if err != nil {
			return false, fmt.Errorf("%s: document %q: %w", sr.path, sr.id(ord), err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// termList locates a term's posting list via binary search over the
// term directory. The bool reports presence; the zero postingList is
// returned for absent terms.
func (sr *segmentReader) termList(hash uint64) (postingList, bool) {
	le := binary.LittleEndian
	lo, hi := 0, sr.termCount
	for lo < hi {
		mid := (lo + hi) / 2
		if le.Uint64(sr.termDir[mid*termDirEntry:]) < hash {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= sr.termCount {
		return postingList{}, false
	}
	e := sr.termDir[lo*termDirEntry:]
	if le.Uint64(e) != hash {
		return postingList{}, false
	}
	off := le.Uint64(e[8:])
	count := int(le.Uint32(e[16:]))
	end := uint64(len(sr.postings))
	if lo+1 < sr.termCount {
		end = le.Uint64(sr.termDir[(lo+1)*termDirEntry+8:])
	}
	if end < off || end > uint64(len(sr.postings)) {
		return postingList{}, false
	}
	return postingList{raw: sr.postings[off:end], count: count, blockSize: sr.blockSize}, true
}

// probe intersects the segment's posting lists for terms, smallest
// first, filtering tombstoned ordinals through dead, and returns the
// surviving sorted ordinals (aliasing scratch buffers — consume
// before releasing scr) plus the merge-work counters. The compressed
// lists are never fully decoded except the smallest: the rest are
// galloped via their skip tables, decoding only visited blocks. A
// missing term short-circuits to empty. Allocation-free once the
// scratch has grown.
//
// probe reuses scr's ping-pong buffers, so a caller that also probes
// the memtable must consume that result before calling probe.
func (sr *segmentReader) probe(terms []uint64, scr *probeScratch, dead []uint64) (_ []ordinal, steps, gallops int, err error) {
	if len(terms) == 0 {
		return nil, 0, 0, nil
	}
	lists := scr.segLists[:0]
	defer func() { scr.segLists = lists }()
	for _, term := range terms {
		pl, ok := sr.termList(term)
		if !ok {
			return nil, 0, 0, nil
		}
		if err := pl.valid(); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: term %#x: %w", sr.path, term, err)
		}
		lists = append(lists, pl)
	}
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && lists[j].count < lists[j-1].count; j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	cur := scr.bufA[:0]
	if cur, err = lists[0].decodeAll(cur); err != nil {
		scr.bufA = cur
		return nil, 0, 0, err
	}
	scr.bufA = cur
	steps = len(cur)
	for i := 1; i < len(lists) && len(cur) > 0; i++ {
		var dst []ordinal
		odd := i%2 == 1
		if odd {
			dst = scr.bufB[:0]
		} else {
			dst = scr.bufA[:0]
		}
		var s int
		dst, scr.segBlock, s, err = intersectPostings(dst, cur, lists[i], scr.segBlock[:0])
		steps += s
		gallops++
		if odd {
			scr.bufB = dst
		} else {
			scr.bufA = dst
		}
		if err != nil {
			return nil, steps, gallops, err
		}
		cur = dst
	}
	if len(dead) > 0 {
		w := 0
		for _, ord := range cur {
			if !bitGet(dead, ord) {
				cur[w] = ord
				w++
			}
		}
		cur = cur[:w]
	}
	return cur, steps, gallops, nil
}

// Tombstone bitmap helpers: one bit per segment ordinal, owned by the
// shard and guarded by its lock.

func bitGet(bm []uint64, i ordinal) bool {
	w := int(i >> 6)
	return w < len(bm) && bm[w]&(1<<(i&63)) != 0
}

func bitSet(bm []uint64, i ordinal) {
	bm[i>>6] |= 1 << (i & 63)
}

func newBitmap(n int) []uint64 {
	return make([]uint64, (n+63)/64)
}

// segTier is a shard's immutable tier: the mapped segment plus the two
// pieces of state the shard layers over it — the tombstone bitmap a
// shadowing put or a delete sets, and the count of ordinals still live
// — which only ever change together (compaction and recovery install
// all three at once). Until its first snapshot or recovery maps a
// segment a shard holds the tier of the zero segmentReader, the empty
// segment — no documents, no terms, no bytes, so every lookup misses
// and every list is empty — and nothing, here or in the callers,
// branches on whether a segment exists. The tombstones mutate only
// under the shard's write lock; everything else is safe under the read
// lock.
type segTier struct {
	r    *segmentReader
	dead []uint64 // one bit per ordinal
	live int      // ordinals not tombstoned
}

// newSegTier layers a clean tombstone bitmap over a segment.
func newSegTier(r *segmentReader) *segTier {
	return &segTier{r: r, dead: newBitmap(r.n), live: r.n}
}

// find returns id's ordinal when id is live in the tier.
func (tier *segTier) find(id string) (ordinal, bool) {
	ord, ok := tier.r.lookup(id)
	return ord, ok && !bitGet(tier.dead, ord)
}

// kill tombstones id and reports whether it was live — a delete, or
// the write half of the tiers' disjointness invariant when a put
// shadows a segment document.
func (tier *segTier) kill(id string) bool {
	ord, ok := tier.find(id)
	if ok {
		bitSet(tier.dead, ord)
		tier.live--
	}
	return ok
}

// doc resolves an ordinal find or probe returned.
func (tier *segTier) doc(ord ordinal) (docPair, error) { return tier.r.resolve(ord) }

// probe is the reader's posting intersection filtered through the
// tombstones (see segmentReader.probe for the scratch contract).
func (tier *segTier) probe(terms []uint64, scr *probeScratch) (_ []ordinal, steps, gallops int, err error) {
	return tier.r.probe(terms, scr, tier.dead)
}

// each calls fn for every live document in ID order, resolving each
// through the cache.
func (tier *segTier) each(fn func(id string, t *jsontree.Tree)) error {
	for ord := ordinal(0); int(ord) < tier.r.n; ord++ {
		if bitGet(tier.dead, ord) {
			continue
		}
		d, err := tier.r.resolve(ord)
		if err != nil {
			return err
		}
		fn(d.id, d.tree)
	}
	return nil
}

// cardinality returns the term's posting count (0 if absent), read
// from the term directory without decoding a block. Like the
// memtable's statistic it may include tombstoned documents, so it is
// an upper bound on live carriers.
func (tier *segTier) cardinality(term uint64) int {
	pl, _ := tier.r.termList(term)
	return pl.count
}

// sizeBytes is the mapped (or heap-resident) file size; 0 exactly when
// no segment is mapped.
func (tier *segTier) sizeBytes() int64 { return int64(len(tier.r.data)) }

// ---------------------------------------------------------------------
// Segment construction: merge of the previous segment and the frozen
// memtable.

// segSource records where one new-segment ordinal came from, so the
// post-build swap can reconcile against writes that landed while the
// merge ran, and so warm parse caches carry over.
type segSource struct {
	fromSeg bool
	oldOrd  ordinal // valid when fromSeg
	memIdx  int32   // index into the captured memtable slice otherwise
}

// segBuild is the frozen input of one segment build, captured under
// the shard lock at WAL rotation, plus the outputs the swap needs.
type segBuild struct {
	shard   int
	gen     uint64         // the rotated WAL's, which the segment pairs with
	old     *segmentReader // previous segment (immutable)
	oldDead []uint64       // tombstones at rotation (copy)
	memIDs  []string       // live memtable documents at rotation
	memTree []*jsontree.Tree

	// Outputs of buildSegment.
	sources []segSource
	entries int
}

// crcWriter counts and checksums everything written through it, so
// the footer CRC is computed in the same single pass that streams the
// file.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	off uint64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.off += uint64(n)
	return n, err
}

// buildSegment writes generation b.gen's segment file for one shard
// from b's frozen inputs: documents stream straight from the old
// mapping (no JSON parse) and from the captured memtable trees, and
// posting lists merge term-by-term — the old segment's compressed
// lists are decoded, de-tombstoned and renumbered while the memtable
// documents are re-walked once. The file lands via temp + fsync +
// rename, so a crash mid-build leaves only a swept .tmp. On return
// b.sources maps every new ordinal to its origin.
func (s *Store) buildSegment(dir string, b *segBuild, seq uint64) error {
	oldN := b.old.n
	// Survivor set, sorted by ID. Live memtable IDs and live old-
	// segment IDs are disjoint: a put that shadows a segment document
	// tombstones its ordinal.
	type survivor struct {
		id  string
		src segSource
	}
	survivors := make([]survivor, 0, oldN+len(b.memIDs))
	for ord := 0; ord < oldN; ord++ {
		if bitGet(b.oldDead, ordinal(ord)) {
			continue
		}
		survivors = append(survivors, survivor{
			id:  b.old.id(ordinal(ord)),
			src: segSource{fromSeg: true, oldOrd: ordinal(ord)},
		})
	}
	for i, id := range b.memIDs {
		survivors = append(survivors, survivor{id: id, src: segSource{memIdx: int32(i)}})
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].id < survivors[j].id })
	n := len(survivors)
	b.sources = make([]segSource, n)
	for i, sv := range survivors {
		b.sources[i] = sv.src
	}

	// Ordinal remaps old → new. Both are order-preserving (survivors
	// of each tier keep their relative ID order), so remapped posting
	// lists stay sorted.
	const deadOrd = ^ordinal(0)
	segRemap := make([]ordinal, oldN)
	for i := range segRemap {
		segRemap[i] = deadOrd
	}
	memOrd := make([]ordinal, len(b.memIDs))
	for newOrd, sv := range survivors {
		if sv.src.fromSeg {
			segRemap[sv.src.oldOrd] = ordinal(newOrd)
		} else {
			memOrd[sv.src.memIdx] = ordinal(newOrd)
		}
	}

	// Memtable postings as (term, ordinal) pairs sorted by term, then
	// ordinal: each term's posting list is one run. The walk happens
	// here — once per captured document — rather than under any lock.
	type posting struct {
		term uint64
		ord  ordinal
	}
	var mem []posting
	for i, t := range b.memTree {
		for _, term := range docTerms(t, s.opts.MaxIndexDepth) {
			mem = append(mem, posting{term, memOrd[i]})
		}
	}
	slices.SortFunc(mem, func(a, b posting) int {
		return cmp.Or(cmp.Compare(a.term, b.term), cmp.Compare(a.ord, b.ord))
	})
	memTerms := 0
	for i := range mem {
		if i == 0 || mem[i].term != mem[i-1].term {
			memTerms++
		}
	}

	fs := s.dur.fs
	tmp := segTempPath(dir, b.gen)
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	bw := segWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	defer func() { bw.Reset(nil); segWriters.Put(bw) }()
	cw := &crcWriter{w: bw}
	le := binary.LittleEndian
	if _, err := io.WriteString(cw, segMagic); err != nil {
		return fail(err)
	}

	// blobs writes a section of n byte strings back to back, then the
	// (n+1)-entry offset index that delimits them, and returns where
	// each of the two began. The docs and ids sections are both this.
	idx := make([]byte, (n+1)*8)
	blobs := func(blob func(i int) []byte) (secOff, idxOff uint64, err error) {
		secOff = cw.off
		for i := 0; i < n; i++ {
			le.PutUint64(idx[i*8:], cw.off-secOff)
			if _, err := cw.Write(blob(i)); err != nil {
				return 0, 0, err
			}
		}
		le.PutUint64(idx[n*8:], cw.off-secOff)
		idxOff = cw.off
		_, err = cw.Write(idx)
		return secOff, idxOff, err
	}
	var buf []byte // one blob at a time, reused
	docsOff, docIdxOff, err := blobs(func(i int) []byte {
		src := survivors[i].src
		if src.fromSeg {
			return b.old.docBytes(src.oldOrd)
		}
		t := b.memTree[src.memIdx]
		buf = t.AppendJSON(buf[:0], t.Root())
		return buf
	})
	if err != nil {
		return fail(err)
	}
	idsOff, idIdxOff, err := blobs(func(i int) []byte {
		buf = append(buf[:0], survivors[i].id...)
		return buf
	})
	if err != nil {
		return fail(err)
	}

	// Postings: one ordered merge of the old segment's term directory
	// and the memtable's term set. Term hashes are unique within each
	// stream and both are sorted, so this is a plain two-pointer merge;
	// a shared hash merges the two remapped ordinal lists.
	postingsOff := cw.off
	oldTerms := b.old.termCount
	termDir := make([]byte, 0, (oldTerms+memTerms)*termDirEntry)
	var encBuf []byte
	var listBuf, decBuf, memBuf []ordinal
	entries := 0
	emit := func(term uint64, ords []ordinal) error {
		if len(ords) == 0 {
			return nil
		}
		var e [termDirEntry]byte
		le.PutUint64(e[0:], term)
		le.PutUint64(e[8:], cw.off-postingsOff)
		le.PutUint32(e[16:], uint32(len(ords)))
		termDir = append(termDir, e[:]...)
		entries += len(ords)
		encBuf = appendPostings(encBuf[:0], ords, segmentBlockSize)
		_, err := cw.Write(encBuf)
		return err
	}
	// remapOld decodes one old-segment list, drops tombstoned
	// ordinals and renumbers the rest (order-preserving).
	remapOld := func(pl postingList) ([]ordinal, error) {
		if err := pl.valid(); err != nil {
			return nil, err
		}
		decBuf = decBuf[:0]
		var err error
		if decBuf, err = pl.decodeAll(decBuf); err != nil {
			return nil, err
		}
		listBuf = listBuf[:0]
		for _, ord := range decBuf {
			if int(ord) < len(segRemap) && segRemap[ord] != deadOrd {
				listBuf = append(listBuf, segRemap[ord])
			}
		}
		return listBuf, nil
	}
	// memList gathers the run of mem starting at mi into memBuf and
	// returns the index past it.
	memList := func(mi int) int {
		memBuf = memBuf[:0]
		for j := mi; j < len(mem) && mem[j].term == mem[mi].term; j++ {
			memBuf = append(memBuf, mem[j].ord)
		}
		return mi + len(memBuf)
	}
	oi, mi := 0, 0
	for oi < oldTerms || mi < len(mem) {
		var oldHash uint64
		var oldPl postingList
		if oi < oldTerms {
			e := b.old.termDir[oi*termDirEntry:]
			oldHash = le.Uint64(e)
			oldPl, _ = b.old.termList(oldHash)
		}
		switch {
		case mi >= len(mem) || (oi < oldTerms && oldHash < mem[mi].term):
			ords, err := remapOld(oldPl)
			if err != nil {
				return fail(err)
			}
			if err := emit(oldHash, ords); err != nil {
				return fail(err)
			}
			oi++
		case oi >= oldTerms || mem[mi].term < oldHash:
			term := mem[mi].term
			mi = memList(mi)
			if err := emit(term, memBuf); err != nil {
				return fail(err)
			}
		default: // same term in both tiers: merge the sorted lists
			ords, err := remapOld(oldPl)
			if err != nil {
				return fail(err)
			}
			mi = memList(mi)
			if err := emit(oldHash, mergeSorted(ords, memBuf)); err != nil {
				return fail(err)
			}
			oi++
		}
	}
	termDirOff := cw.off
	if _, err := cw.Write(termDir); err != nil {
		return fail(err)
	}

	// Footer: everything through the CRC's own offset is covered by
	// the CRC; the CRC and trailing magic are not (they cannot be).
	var ft [segFooterSize]byte
	le.PutUint64(ft[0:], docsOff)
	le.PutUint64(ft[8:], docIdxOff)
	le.PutUint64(ft[16:], idsOff)
	le.PutUint64(ft[24:], idIdxOff)
	le.PutUint64(ft[32:], postingsOff)
	le.PutUint64(ft[40:], termDirOff)
	le.PutUint64(ft[48:], uint64(entries))
	le.PutUint64(ft[56:], seq)
	le.PutUint32(ft[64:], uint32(n))
	le.PutUint32(ft[68:], uint32(len(termDir)/termDirEntry))
	le.PutUint32(ft[72:], segmentBlockSize)
	crcEnd := segFooterSize - len(segFooterMagic) - 4
	if _, err := cw.Write(ft[:crcEnd]); err != nil {
		return fail(err)
	}
	le.PutUint32(ft[crcEnd:], cw.crc)
	copy(ft[crcEnd+4:], segFooterMagic)
	if _, err := cw.w.Write(ft[crcEnd:]); err != nil {
		return fail(err)
	}
	if err := cw.w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, segFilePath(dir, b.gen)); err != nil {
		fs.Remove(tmp)
		return err
	}
	b.entries = n
	return fs.SyncDir(dir)
}

// mergeSorted merges two sorted duplicate-free ordinal lists. The
// tiers are disjoint, so no ordinal appears in both.
func mergeSorted(a, b []ordinal) []ordinal {
	out := make([]ordinal, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// segWriters recycles the builds' 1 MiB file buffers, which a roll at
// every SnapshotEvery records would otherwise allocate per cut.
var segWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<20) }}
