package store

// compaction.go: background segment building (what "snapshot"
// means). A snapshot of shard i at generation g is the segment file
// shard-NNNN/seg-g.seg holding every document the shard owned at the
// instant wal-g.log started: the snapshotter rotates the WAL and
// captures the shard's state under the shard lock (pointer copies —
// trees are immutable, the old segment is immutable by construction),
// then merges old segment + memtable into a new segment in the
// background with no lock held, and finally swaps the new segment in
// under the lock, reconciling against writes that landed during the
// merge. The file is written to a temp name, fsynced and renamed into
// place, so a *.seg file is complete by construction; the CRC'd
// footer makes completeness verifiable independently of the rename.
// Once the segment is durable, all earlier generations' files are
// obsolete and removed.

import (
	"fmt"
	"path/filepath"
	"slices"

	"jsonlogic/internal/jsontree"
)

// Snapshot forces a segment build of every shard and removes the WAL
// generations it obsoletes. It runs concurrently with reads and
// writes; the per-shard pauses are the WAL rotation plus a pointer
// capture of the shard's state, and the post-merge swap. On an
// in-memory store it is a no-op.
func (s *Store) Snapshot() error {
	if s.dur == nil {
		return nil
	}
	s.dur.snapMu.Lock()
	defer s.dur.snapMu.Unlock()
	for i := range s.shards {
		if err := s.snapshotShard(i); err != nil {
			return err
		}
	}
	return nil
}

// snapshotShard merges one shard's old segment and memtable into a
// new segment at the rotated WAL's generation, then swaps it in. The
// caller holds dur.snapMu. Three phases:
//
//  1. Under the shard lock: rotate the WAL and capture the state at
//     that instant — the old segment (immutable), a copy of its
//     tombstone bitmap, and the memtable's (id, tree) pairs (pointer
//     copies).
//  2. No lock held: buildSegment streams the merge to disk; reads and
//     writes proceed against the live shard meanwhile.
//  3. Under the shard lock: map the new segment and install it,
//     reconciling writes that landed during the merge — a captured
//     document that was overwritten or deleted since is tombstoned in
//     the new segment (its WAL record is in the new generation, which
//     replays over the segment on recovery, so the disk story is
//     consistent too); everything else migrates out of the memtable
//     with its parse cache warm.
func (s *Store) snapshotShard(i int) error {
	d := s.dur
	sh := s.shards[i]
	w := d.wals[i]
	dir := d.shardDir(i)

	sh.mu.Lock()
	gen, err := w.rotate()
	if err != nil {
		sh.mu.Unlock()
		d.snapshotErrors.Add(1)
		return err
	}
	b := &segBuild{old: sh.seg.r, oldDead: slices.Clone(sh.seg.dead)}
	n := sh.ix.live()
	b.memIDs = make([]string, 0, n)
	b.memTree = make([]*jsontree.Tree, 0, n)
	sh.ix.each(func(id string, t *jsontree.Tree) {
		b.memIDs = append(b.memIDs, id)
		b.memTree = append(b.memTree, t)
	})
	sh.mu.Unlock()

	// Persist the bulk auto-ID high-water mark alongside the shard:
	// IDs of documents deleted before this segment disappear from both
	// the segment and the GC'd WAL generations, and must still never
	// be recycled after a restart. Any value ≥ every ID assigned so
	// far is correct; the current counter is exactly that.
	if err := s.buildSegment(dir, gen, b, s.seq.Load()); err != nil {
		d.snapshotErrors.Add(1)
		return fmt.Errorf("store: snapshot shard %d: %w", i, err)
	}
	sr, err := openSegment(d.fs, segFilePath(dir, gen), gen, false)
	if err != nil {
		d.snapshotErrors.Add(1)
		return fmt.Errorf("store: snapshot shard %d: %w", i, err)
	}

	// Swap. Writes that arrived after the capture fall into three
	// cases, keyed by comparing live state to the captured pointers:
	// a brand-new document (stays in the rebuilt memtable), an
	// overwrite of a captured one (captured version tombstoned in the
	// new segment, the new version stays in the memtable) and a delete
	// of a captured one (tombstoned, nothing retained).
	sh.mu.Lock()
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
	sh.mu.Unlock()
	old.r.close()

	d.compactions.Add(1)
	removeObsolete(d.fs, dir, gen)
	return nil
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
