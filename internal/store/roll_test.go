package store

// roll_test.go: the write-triggered segment roll. The write that brings
// a shard's WAL generation to SnapshotEvery records takes the capture;
// builds run in the background one at a time, a later cut replaces a
// capture whose build has not started, and a write that would reach
// the threshold while the build runs waits for it — so where the cuts
// fall depends on the write sequence alone, not on scheduling or build
// speed. Builds never run on the FsyncInterval flush loop, and Close
// waits for every pending build.

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitBuilds returns once no shard has a capture waiting for its
// build or a build running. Callers write nothing meanwhile.
func waitBuilds(s *Store) {
	for _, sh := range s.shards {
		for {
			sh.mu.Lock()
			idle := sh.pending == nil && sh.building == nil
			sh.mu.Unlock()
			if idle {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// applyRollSequence is one fixed sequential write history: puts,
// overwrites, deletes and one bulk batch.
func applyRollSequence(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := s.PutTree(fmt.Sprintf("p%04d", i), chaosDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := s.PutTree(fmt.Sprintf("p%04d", i), chaosDoc(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 150; i++ {
		if ok, err := s.Delete(fmt.Sprintf("p%04d", i)); !ok || err != nil {
			t.Fatalf("delete p%04d: %v, %v", i, ok, err)
		}
	}
	var bulk strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&bulk, "{\"b\":%d}\n", i)
	}
	if res, err := s.BulkNDJSON(strings.NewReader(bulk.String())); err != nil || len(res.IDs) != 120 {
		t.Fatalf("bulk: %d ids, %v", len(res.IDs), err)
	}
}

// TestRollIsDeterministic: one write sequence, applied once at
// GOMAXPROCS 1 with instant builds and once at GOMAXPROCS 4 with every
// build held in flight, leaves identical per-shard segment and
// memtable counts, and every shard's WAL generation below the
// threshold.
func TestRollIsDeterministic(t *testing.T) {
	const every = 10
	run := func(procs int, delay time.Duration) [][2]int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := openDurable(t, Options{Shards: 4, DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: every})
		if delay > 0 {
			s.dur.beforeBuild = func(int) { time.Sleep(delay) }
		}
		applyRollSequence(t, s)
		waitBuilds(s)
		counts := make([][2]int, len(s.shards))
		for i, sh := range s.shards {
			sh.mu.RLock()
			counts[i] = [2]int{sh.seg.live, sh.ix.live()}
			sh.mu.RUnlock()
			if n := s.dur.wals[i].segmentRecords(); n >= every {
				t.Errorf("GOMAXPROCS %d, delay %v: shard %d's WAL generation holds %d records, want < %d", procs, delay, i, n, every)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return counts
	}
	instant := run(1, 0)
	held := run(4, 15*time.Millisecond)
	for i := range instant {
		if instant[i] != held[i] {
			t.Errorf("shard %d: [segment memtable] docs %v with instant builds, %v with held builds", i, instant[i], held[i])
		}
		if instant[i][0] == 0 {
			t.Errorf("shard %d rolled nothing into a segment", i)
		}
	}
}

// TestRollConcurrentWriters: writers on every shard at once, a reader
// and manual Snapshots race the write-triggered rolls; at quiesce no
// WAL generation is at the threshold and a reopen holds exactly the
// written state.
func TestRollConcurrentWriters(t *testing.T) {
	const every, writers, per = 8, 4, 60
	dir := t.TempDir()
	opts := Options{Shards: 4, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: every}
	s := openDurable(t, opts)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.PutTree(fmt.Sprintf("w%d-%02d", w, i), chaosDoc(i)); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < per/2; i++ {
				if err := s.PutTree(fmt.Sprintf("w%d-%02d", w, i), chaosDoc(1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
			for i := per / 2; i < per*2/3; i++ {
				if _, err := s.Delete(fmt.Sprintf("w%d-%02d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	p := scanPlan(t, s)
	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(2)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := s.Find(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
	waitBuilds(s)
	for i, w := range s.dur.wals {
		if n := w.segmentRecords(); n >= every {
			t.Errorf("shard %d's WAL generation holds %d records at quiesce, want < %d", i, n, every)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDurable(t, opts)
	defer s2.Close()
	if want := writers * (per - (per*2/3 - per/2)); s2.Len() != want {
		t.Fatalf("reopened %d docs, want %d", s2.Len(), want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			got, ok := s2.Get(fmt.Sprintf("w%d-%02d", w, i))
			switch {
			case i < per/2:
				ok = ok && got.String() == chaosDoc(1000+i).String()
			case i < per*2/3:
				ok = !ok
			default:
				ok = ok && got.String() == chaosDoc(i).String()
			}
			if !ok {
				t.Fatalf("w%d-%02d reopened wrong: %v", w, i, got)
			}
		}
	}
}

// TestRollOnReopen: a store reopened with a SnapshotEvery its replayed
// WAL generation already exceeds rolls once, with no write.
func TestRollOnReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: -1}
	s := openDurable(t, opts)
	for i := 0; i < 50; i++ {
		if err := s.PutTree(fmt.Sprintf("k%02d", i), chaosDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts.SnapshotEvery = 20
	s2 := openDurable(t, opts)
	defer s2.Close()
	waitBuilds(s2)
	d := s2.Stats().Durability
	if d.Compactions != 1 || d.SegmentDocs != 50 || d.MemtableDocs != 0 || d.WALSegmentRecords != 0 {
		t.Fatalf("after reopening a 50-record tail at SnapshotEvery 20: compactions %d, segment docs %d, memtable docs %d, WAL records %d; want 1, 50, 0, 0",
			d.Compactions, d.SegmentDocs, d.MemtableDocs, d.WALSegmentRecords)
	}
}

// TestIntervalSyncDuringBuild: under FsyncInterval the WAL keeps
// syncing every flushPeriod while a segment build is in flight — the
// build must not stall the flush that bounds what a crash may lose.
func TestIntervalSyncDuringBuild(t *testing.T) {
	const every, buildDelay = 100, 6 * flushPeriod
	s := openDurable(t, Options{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncInterval, SnapshotEvery: every})
	defer s.Close()
	started := make(chan struct{})
	s.dur.beforeBuild = func(int) {
		// Let the cut's seal finish first: the window measures the build.
		w := s.dur.wals[0]
		w.mu.Lock()
		w.idle()
		w.mu.Unlock()
		close(started)
		time.Sleep(buildDelay)
	}
	for i := 0; i < every-1; i++ {
		if err := s.PutTree(fmt.Sprintf("k%03d", i), chaosDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A slow writer: the first put reaches the threshold and starts the
	// held build; the rest give every flush something to sync, too few
	// to reach the threshold again while the build is held.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.PutTree(fmt.Sprintf("w%03d", i), chaosDoc(i)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	defer func() { close(stop); <-done }()
	<-started
	last, lastAt := s.Stats().Durability.WALSyncs, time.Now()
	var maxGap time.Duration
	for end := time.Now().Add(buildDelay + 2*flushPeriod); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if n := s.Stats().Durability.WALSyncs; n != last {
			maxGap = max(maxGap, time.Since(lastAt))
			last, lastAt = n, time.Now()
		}
	}
	maxGap = max(maxGap, time.Since(lastAt))
	if maxGap > 2*flushPeriod {
		t.Fatalf("longest gap between WAL syncs during a %v build: %v, want ≤ %v", buildDelay, maxGap, 2*flushPeriod)
	}
	if c := s.Stats().Durability.Compactions; c != 1 {
		t.Fatalf("compactions = %d after the held build, want 1", c)
	}
}

// TestCloseRacesRoll: Close with one shard's build held running and
// the other's capture waiting its turn returns only after both builds
// installed, and no file in the data directory changes after.
func TestCloseRacesRoll(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: 20}
	s := openDurable(t, opts)
	started := make(chan struct{}, 2)
	s.dur.beforeBuild = func(int) {
		started <- struct{}{}
		time.Sleep(200 * time.Millisecond)
	}
	putShard := func(shard uint64) {
		for i, n := 0, 0; n < 20; i++ {
			if id := fmt.Sprintf("k%03d", i); s.shardIndex(id) == shard {
				if err := s.PutTree(id, chaosDoc(i)); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	putShard(0)
	<-started
	putShard(1) // its build waits for shard 0's
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c := s.Stats().Durability.Compactions; c != 2 {
		t.Fatalf("Close returned with compactions %d, want both builds installed", c)
	}
	for i, sh := range s.shards {
		if sh.building != nil || sh.pending != nil {
			t.Fatalf("Close returned with shard %d's build unfinished", i)
		}
	}
	before := listFiles(t, dir)
	time.Sleep(300 * time.Millisecond)
	if after := listFiles(t, dir); after != before {
		t.Fatalf("data dir changed after Close:\nbefore: %s\nafter:  %s", before, after)
	}
	s2 := openDurable(t, opts)
	defer s2.Close()
	if rs := s2.Stats().Durability.Recovery; s2.Len() != 40 || rs.SegmentsMapped != 2 || rs.WALRecordsReplayed != 0 {
		t.Fatalf("reopened %d docs, recovery %+v; want 40 docs from the segments alone", s2.Len(), rs)
	}
}

// listFiles renders every file under dir with its size and
// modification time.
func listFiles(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s:%d:%d ", path[len(dir):], info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
