package store

// segment_test.go: the segment tier's own test battery — the crash
// matrix (torn footer, flipped block, kill during compaction), the
// legacy-snapshot upgrade path, a churn differential that crosses the
// tier boundary repeatedly (including the forced heap fallback), and
// the allocation pin on the compressed probe path.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

// measureAllocs reports steady-state allocations per call with GC
// pinned off, after one warm-up call (same harness as the engine's
// alloc tests).
func measureAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	return testing.AllocsPerRun(200, f)
}

// TestSegmentCrashMatrix drives one shard through two segment
// generations, then damages the newest segment in each of the ways a
// crash can: a footer torn mid-write, a block flipped after the fact,
// and a compaction killed before its rename. Every variant must
// recover to the previous generation plus the full WAL history —
// node-for-node equal to the reference — because the WAL generations
// bridging the gap are still on disk.
func TestSegmentCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(47))
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 1})
	ids := durableIDs()
	for i := 0; i < 60; i++ {
		mutate(t, r, s, ref, ids)
	}
	if err := s.Snapshot(); err != nil { // seg-1, wal-1 active
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mutate(t, r, s, ref, ids)
	}
	sd := s.dur.shardDir(0)
	s.crashForTest()
	// The fallback generation: seg-1 plus the wal-1 records after it.
	seg1, err := os.ReadFile(segFilePath(sd, 1))
	if err != nil {
		t.Fatal(err)
	}
	wal1, err := os.ReadFile(walPath(sd, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Second generation: reopen (nothing new), compact to seg-2 — which
	// garbage-collects seg-1/wal-1 — then write a tail into wal-2.
	s2 := openDurable(t, opts)
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mutate(t, r, s2, ref, ids)
	}
	s2.crashForTest()
	seg2, err := os.ReadFile(segFilePath(sd, 2))
	if err != nil {
		t.Fatal(err)
	}

	restore := func(t *testing.T, fallback bool) {
		t.Helper()
		if err := os.WriteFile(segFilePath(sd, 2), seg2, 0o644); err != nil {
			t.Fatal(err)
		}
		if fallback {
			if err := os.WriteFile(segFilePath(sd, 1), seg1, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath(sd, 1), wal1, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, wantInvalid, wantMapped int) {
		t.Helper()
		s3 := openDurable(t, opts)
		defer s3.crashForTest()
		rs := s3.Stats().Durability.Recovery
		if rs.InvalidSegments != wantInvalid || rs.SegmentsMapped != wantMapped {
			t.Fatalf("recovery stats = %+v, want %d invalid / %d mapped segments", rs, wantInvalid, wantMapped)
		}
		compareStores(t, s3, ref)
		diffQueries(t, r, s3, ref, 60)
	}

	t.Run("torn-footer", func(t *testing.T) {
		restore(t, true)
		st, err := os.Stat(segFilePath(sd, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segFilePath(sd, 2), st.Size()-13); err != nil {
			t.Fatal(err)
		}
		check(t, 1, 1) // seg-2 refused, seg-1 mapped, wal-1+wal-2 replayed
	})
	t.Run("flipped-block", func(t *testing.T) {
		restore(t, true)
		raw := append([]byte(nil), seg2...)
		raw[len(raw)/3] ^= 0x40
		if err := os.WriteFile(segFilePath(sd, 2), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, 1, 1) // whole-file CRC catches the flip
	})
	t.Run("killed-compaction", func(t *testing.T) {
		// A build killed before its rename leaves only a temp file; the
		// intact seg-2 stays authoritative and the leftover is swept.
		restore(t, false)
		if err := os.WriteFile(segTempPath(sd, 3), []byte("partial segment build"), 0o644); err != nil {
			t.Fatal(err)
		}
		s3 := openDurable(t, opts)
		defer s3.Close()
		rs := s3.Stats().Durability.Recovery
		if rs.StaleTempFiles == 0 || rs.InvalidSegments != 0 || rs.SegmentsMapped != 1 {
			t.Fatalf("recovery stats = %+v, want swept temp and seg-2 mapped", rs)
		}
		if _, err := os.Stat(segTempPath(sd, 3)); !os.IsNotExist(err) {
			t.Fatal("stale segment temp file survived recovery")
		}
		compareStores(t, s3, ref)
		diffQueries(t, r, s3, ref, 60)
	})
}

// TestSegmentLegacySnapshotRefused: this build no longer reads the
// snap-*.snap record streams pre-segment builds wrote. A shard whose
// newest usable base would be one must fail Open with the specific
// conversion error — opening without it would silently drop every
// document only that file holds — while a stale one below a valid
// segment is harmless and goes with the next compaction.
func TestSegmentLegacySnapshotRefused(t *testing.T) {
	seed := func(t *testing.T) (Options, string) {
		opts := Options{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncAlways, SnapshotEvery: -1}
		s := openDurable(t, opts)
		for i := 0; i < 30; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf(`{"i":%d}`, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Snapshot(); err != nil { // seg-1 + wal-1
			t.Fatal(err)
		}
		if err := s.Put("late", `{"late":1}`); err != nil { // a WAL tail past the base
			t.Fatal(err)
		}
		sd := s.dur.shardDir(0)
		s.crashForTest()
		return opts, sd
	}
	legacy := func(t *testing.T, sd string, gen int) string {
		path := filepath.Join(sd, fmt.Sprintf("snap-%010d.snap", gen))
		if err := os.WriteFile(path, []byte("JLSNAP1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	refused := func(t *testing.T, opts Options) {
		t.Helper()
		s, err := Open(opts)
		if err == nil {
			s.Close()
			t.Fatal("Open succeeded over a legacy snapshot base")
		}
		if !errors.Is(err, errLegacySnapshot) || !strings.Contains(err.Error(), "legacy snapshot, convert with a pre-segment build") {
			t.Fatalf("Open error = %v, want the legacy-snapshot conversion error", err)
		}
	}
	t.Run("newest base is legacy", func(t *testing.T) {
		opts, sd := seed(t)
		legacy(t, sd, 1)
		if err := os.Remove(segFilePath(sd, 1)); err != nil {
			t.Fatal(err)
		}
		refused(t, opts)
	})
	t.Run("corrupt segment falls back onto legacy", func(t *testing.T) {
		opts, sd := seed(t)
		legacy(t, sd, 1)
		if err := os.WriteFile(segFilePath(sd, 1), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, opts)
	})
	t.Run("stale legacy below a valid segment", func(t *testing.T) {
		opts, sd := seed(t)
		stale := legacy(t, sd, 0)
		s := openDurable(t, opts)
		defer s.Close()
		if rs := s.Stats().Durability.Recovery; rs.SegmentsMapped != 1 || s.Len() != 31 {
			t.Fatalf("recovery stats = %+v, len %d; want the segment mapped over the stale snapshot", rs, s.Len())
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatal("stale legacy snapshot survived the next compaction")
		}
	})
}

// TestSegmentDifferentialChurn is the tier-boundary differential:
// three rounds of random churn and compaction — with forced
// delete-then-reinsert across the boundary each round, so tombstones,
// shadowed segment documents and merged generations all occur — after
// which the segment-backed store must answer every front end's random
// queries identically to the in-memory reference, both mmap'd and on
// the forced heap fallback.
func TestSegmentDifferentialChurn(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(51))
	opts := Options{Shards: 4, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 4})
	ids := durableIDs()
	for round := 0; round < 3; round++ {
		for i := 0; i < 80; i++ {
			mutate(t, r, s, ref, ids)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// Cross-tier churn: delete documents the segment just absorbed
		// and reinsert under the same IDs, so probes must mask the
		// tombstoned segment ordinal and find the memtable replacement.
		for j := 0; j < 5; j++ {
			id := ids[r.Intn(len(ids))]
			if _, err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			ref.Delete(id)
			doc := gen.Document(r, durableDocOptions()).String()
			if err := s.Put(id, doc); err != nil {
				t.Fatal(err)
			}
			if err := ref.Put(id, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ds := s.Stats().Durability; ds.Segments != 4 || ds.Compactions == 0 || ds.SegmentBytes == 0 {
		t.Fatalf("durability stats = %+v, want 4 live segments", ds)
	}
	compareStores(t, s, ref)
	diffQueries(t, r, s, ref, 120)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same directory on the read-into-heap path (the only one platforms
	// without mmap have): every shard's reader is reopened with noMmap
	// before anything resolves, and the answers must be identical with
	// no mapping involved.
	s2 := openDurable(t, opts)
	defer s2.Close()
	if rs := s2.Stats().Durability.Recovery; rs.SegmentsMapped != 4 {
		t.Fatalf("recovery stats = %+v, want 4 segments", rs)
	}
	for _, sh := range s2.shards {
		mapped := sh.seg.r
		heap, err := openSegment(osFS{}, mapped.path, mapped.gen, true)
		if err != nil {
			t.Fatal(err)
		}
		if heap.mapped {
			t.Fatal("noMmap reader is mapped")
		}
		sh.seg.r = heap
		mapped.close()
	}
	compareStores(t, s2, ref)
	diffQueries(t, r, s2, ref, 120)
}

// TestResolvedTreeOutlivesSegment: a tree parsed from a mapped segment
// owns its text. Compaction carries the cached trees of one reader
// into the next and then unmaps the old file, so a tree whose keys or
// strings aliased the mapping would read unmapped — or remapped —
// memory once its segment is gone. The held trees, resolved after a
// reopen so that they come from the segment bytes and not from the
// memtable, must re-encode byte for byte after two compactions.
func TestResolvedTreeOutlivesSegment(t *testing.T) {
	opts := Options{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: -1}
	s := openDurable(t, opts)
	docs := map[string]string{}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("doc%03d", i)
		docs[id] = fmt.Sprintf(`{"esc":"tab\tquote\"%d","n":%d,"name":"plain%d","tags":["a%d","b"]}`, i, i, i, i%7)
		if err := s.Put(id, docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openDurable(t, opts)
	defer s.Close()
	if s.shards[0].seg.live != len(docs) || s.shards[0].ix.live() != 0 {
		t.Fatal("documents did not reopen in the segment tier")
	}
	held := map[string]*jsontree.Tree{}
	for id := range docs {
		tr, ok := s.Get(id)
		if !ok {
			t.Fatalf("Get(%s) missed", id)
		}
		held[id] = tr
	}
	// Each compaction's new documents sort first, shifting every held
	// document's bytes: a remapping at the old address reads other text.
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("a%d", i), `{"pad":"`+strings.Repeat("x", 100)+`"}`); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	for id, tr := range held {
		if got := string(tr.AppendJSON(nil, tr.Root())); got != docs[id] {
			t.Errorf("%s re-encodes as %s, want %s", id, got, docs[id])
		}
	}
}

// TestSegmentProbeZeroAllocs pins the tentpole's hard constraint at
// the segment layer: once the probe scratch has grown, a steady-state
// probe of compressed posting lists — galloping intersection included
// — allocates nothing.
func TestSegmentProbeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	dir := t.TempDir()
	s := openDurable(t, Options{Shards: 1, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: -1})
	defer s.Close()
	for i := 0; i < 2000; i++ {
		doc := fmt.Sprintf(`{"group":"g%d","flag":"on","tags":{"color":"c%d"}}`, i%64, i%5)
		if err := s.Put(fmt.Sprintf("doc%05d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil { // everything moves to the segment
		t.Fatal(err)
	}
	var terms []uint64
	for _, f := range engine.MustCompile(engine.LangMongoFind, `{"group":"g7","tags.color":"c3"}`).FindFacts() {
		if term, ok := factTerm(f, s.opts.MaxIndexDepth); ok {
			terms = append(terms, term)
		}
	}
	if len(terms) < 2 {
		t.Fatalf("expected at least 2 probe terms, got %d", len(terms))
	}
	sh := s.shards[0]
	if sh.seg.live != 2000 {
		t.Fatal("documents did not land in the segment tier")
	}
	scr := acquireProbeScratch()
	defer releaseProbeScratch(scr)
	n := measureAllocs(func() {
		sh.mu.RLock()
		ords, _, _, err := sh.seg.probe(terms, scr)
		sh.mu.RUnlock()
		if err != nil || len(ords) == 0 {
			t.Fatalf("probe: %d ordinals, err %v", len(ords), err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state segment probe allocates: %v allocs/op, want 0", n)
	}
}
