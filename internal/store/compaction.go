package store

// compaction.go: segment rolls (what "snapshot" means). A roll of
// shard i at generation g writes shard-NNNN/seg-g.seg: every document
// the shard owned at the instant wal-g.log started. The write whose
// append brings the WAL generation to SnapshotEvery records takes the
// capture in the same shard-lock hold (the LSM memtable switch): a WAL
// cut, which waits on no disk, plus pointer copies of the immutable
// trees and old segment. A background goroutine merges them into the
// new segment with no lock held and swaps it in under the lock. A
// capture whose build has not started is replaced by the next cut; a
// write that would reach the threshold while the shard's build runs
// waits for it. So every cut falls at exactly SnapshotEvery records
// however fast the writes came, and the segment holds the last one.
// Snapshot, the heal probe and Open roll the same way. The file lands
// via temp + fsync + rename with a CRC'd footer, so a *.seg file is
// complete by construction; once it is durable, every earlier
// generation's files are removed.

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"

	"jsonlogic/internal/jsontree"
)

// Snapshot rolls every shard and removes the WAL generations it
// obsoletes. It runs concurrently with reads and writes; the per-shard
// pauses are the capture and the post-merge swap. On an in-memory
// store it is a no-op.
func (s *Store) Snapshot() error {
	if s.dur == nil {
		return nil
	}
	for i := range s.shards {
		if err := s.rollShard(i); err != nil {
			return err
		}
	}
	return nil
}

// due reports whether a WAL generation of n records has reached the
// roll threshold.
func (d *durability) due(n uint64) bool { return d.rollEvery > 0 && n >= d.rollEvery }

// rollShard rolls shard i on the calling goroutine, after the shard's
// running build if there is one; its capture supersedes a pending one.
func (s *Store) rollShard(i int) error {
	sh := s.shards[i]
	sh.mu.Lock()
	sh.awaitBuild(func() bool { return true })
	b, err := s.capture(i)
	if err == nil {
		sh.pending, sh.building = nil, make(chan struct{})
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	return s.install(b)
}

// startRoll captures shard i for a build on a goroutine Close waits
// for. The caller holds the shard lock with no build running. A failed
// capture has degraded the WAL, which the heal probe repairs.
func (s *Store) startRoll(i int) {
	b, err := s.capture(i)
	if err != nil {
		return
	}
	sh := s.shards[i]
	first := sh.pending == nil
	sh.pending = b
	if first {
		s.dur.bg.Add(1)
		go s.build(i)
	}
}

// build runs shard i's pending capture. Builds run one at a time: a
// bulk load cuts every shard at about the same moment, and as many
// concurrent builds as shards starved the load of CPU (its ingest rate
// fell 30-50 %). A cut that comes while the capture waits its turn
// replaces it, so a lagging builder builds each shard once for
// several cuts.
func (s *Store) build(i int) {
	defer s.dur.bg.Done()
	s.dur.buildMu.Lock()
	defer s.dur.buildMu.Unlock()
	sh := s.shards[i]
	sh.mu.Lock()
	b := sh.pending
	if b != nil {
		sh.pending, sh.building = nil, make(chan struct{})
	}
	sh.mu.Unlock()
	if b == nil {
		return // a Snapshot or heal roll superseded it
	}
	if err := s.install(b); err != nil {
		slog.Warn("store: segment build failed; the heal probe retries it", "shard", i, "err", err)
	}
}

// capture is phase 1 of a roll, under the shard lock: cut the WAL
// (its seal runs in the background) and copy the state at that instant
// — the old segment, its tombstone bitmap, the memtable's (id, tree)
// pairs.
func (s *Store) capture(i int) (*segBuild, error) {
	sh := s.shards[i]
	gen, seal, err := s.dur.wals[i].cut()
	if err != nil {
		s.dur.snapshotErrors.Add(1)
		return nil, err
	}
	s.dur.bg.Add(1)
	go func() {
		defer s.dur.bg.Done()
		if seal() != nil {
			s.dur.snapshotErrors.Add(1)
		}
	}()
	b := &segBuild{shard: i, gen: gen, old: sh.seg.r, oldDead: slices.Clone(sh.seg.dead)}
	n := sh.ix.live()
	b.memIDs = make([]string, 0, n)
	b.memTree = make([]*jsontree.Tree, 0, n)
	sh.ix.each(func(id string, t *jsontree.Tree) {
		b.memIDs = append(b.memIDs, id)
		b.memTree = append(b.memTree, t)
	})
	return b, nil
}

// install runs phases 2 and 3 of a roll and ends the shard's build; a
// failed build marks the shard for the heal probe.
//
//  2. No lock held: buildSegment streams the merge to disk; reads and
//     writes proceed against the live shard meanwhile.
//  3. Under the shard lock: map the new segment and swap it in.
func (s *Store) install(b *segBuild) error {
	d := s.dur
	sh := s.shards[b.shard]
	dir := d.shardDir(b.shard)
	if d.beforeBuild != nil {
		d.beforeBuild(b.shard)
	}
	// Persist the bulk auto-ID high-water mark alongside the shard:
	// IDs of documents deleted before this segment disappear from both
	// the segment and the GC'd WAL generations, and must still never
	// be recycled after a restart. Any value ≥ every ID assigned so
	// far is correct; the current counter is exactly that.
	err := s.buildSegment(dir, b, s.seq.Load())
	var sr *segmentReader
	if err == nil {
		sr, err = openSegment(d.fs, segFilePath(dir, b.gen), b.gen, false)
	}
	sh.mu.Lock()
	old := sh.seg
	if err == nil {
		s.swap(sh, b, sr)
	}
	close(sh.building)
	sh.building = nil
	sh.rollFailed.Store(err != nil)
	sh.mu.Unlock()
	if err != nil {
		d.snapshotErrors.Add(1)
		return fmt.Errorf("store: snapshot shard %d: %w", b.shard, err)
	}
	old.r.close()
	d.compactions.Add(1)
	removeObsolete(d.fs, dir, b.gen)
	return nil
}

// swap installs sr, built from b, as the shard's segment tier. No
// other build installs into the shard between b's capture and here (a
// capture is built or replaced, never queued behind another), so
// sh.seg is still the captured b.old. Writes since the capture are reconciled by comparing
// live state to the captured pointers: a new document stays in the
// rebuilt memtable; an overwritten or deleted captured one is
// tombstoned in the new segment (its WAL record is in the new
// generation, which replays over the segment on recovery), the new
// version staying in the memtable; everything else migrates out of the
// memtable with its parse cache warm. Caller holds the shard lock.
func (s *Store) swap(sh *shard, b *segBuild, sr *segmentReader) {
	next, old := newSegTier(sr), sh.seg
	tombstone := func(newOrd int) {
		bitSet(next.dead, ordinal(newOrd))
		next.live--
	}
	migrated := make(map[string]bool, len(b.memIDs))
	for newOrd, src := range b.sources {
		if src.fromSeg {
			if bitGet(old.dead, src.oldOrd) {
				// Tombstoned since the capture (b.oldDead ordinals were
				// never written into the new segment at all).
				tombstone(newOrd)
			} else if cached := old.r.cache[src.oldOrd].Load(); cached != nil {
				sr.cache[newOrd].Store(cached)
			}
			continue
		}
		id := b.memIDs[src.memIdx]
		if cur, ok := sh.ix.get(id); ok && cur == b.memTree[src.memIdx] {
			migrated[id] = true
			sr.cache[newOrd].Store(cur)
		} else {
			tombstone(newOrd)
		}
	}
	newIx := newPathIndex(s.opts.MaxIndexDepth)
	sh.ix.each(func(id string, t *jsontree.Tree) {
		if !migrated[id] {
			newIx.add(id, t)
		}
	})
	sh.seg, sh.ix = next, newIx
}

// removeObsolete deletes segment files (and stale legacy snapshots)
// and WAL segments of generations before keep. Best-effort: a leftover
// file is re-deleted by the next snapshot and skipped by recovery.
func removeObsolete(fs VFS, dir string, keep uint64) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		// parseGenName matches prefix and suffix exactly, so only the
		// files this package owns are ever deleted.
		if gen, kind := parseGenName(name); kind != "" && gen < keep {
			fs.Remove(filepath.Join(dir, name))
		}
	}
}
