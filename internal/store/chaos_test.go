package store

// chaos_test.go: fault-injected durability tests. Each test wires a
// FaultFS under a durable store, makes the disk fail in a specific
// way (ENOSPC on WAL writes, EIO on fsync, a torn half-write), and
// proves the degradation contract: the failed shard turns read-only
// (ErrDegraded on writes, reads oracle-correct throughout), nothing
// already acknowledged is ever lost — across heal or crash — and once
// the fault clears the background probe heals the shard and writes
// resume. `make chaos` runs exactly this suite plus the httpapi
// robustness tests.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jsonlogic/internal/jsontree"
)

// chaosOpts is the shared configuration: a FaultFS over the real
// disk, fsync on every commit (so every put exercises the write+sync
// path) and background snapshots off unless the test wants them.
func chaosOpts(dir string, fs *FaultFS) Options {
	return Options{
		Shards:        2,
		DataDir:       dir,
		Fsync:         FsyncAlways,
		SnapshotEvery: -1,
		VFS:           fs,
	}
}

// openChaos is openDurable with a 5 ms initial heal and snapshot-retry
// backoff, so tests wait milliseconds, not seconds.
func openChaos(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := open(opts, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("open(%s): %v", opts.DataDir, err)
	}
	return s
}

func chaosDoc(i int) *jsontree.Tree {
	t, err := jsontree.Parse(fmt.Sprintf(`{"n":%d,"tag":"doc-%d"}`, i, i))
	if err != nil {
		panic(err)
	}
	return t
}

// mustPutN stores docs c0..c<n-1> and returns the oracle map.
func mustPutN(t *testing.T, s *Store, n int) map[string]*jsontree.Tree {
	t.Helper()
	oracle := make(map[string]*jsontree.Tree, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%04d", i)
		doc := chaosDoc(i)
		if err := s.PutTree(id, doc); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
		oracle[id] = doc
	}
	return oracle
}

// checkOracle requires every oracle document to read back intact.
func checkOracle(t *testing.T, s *Store, oracle map[string]*jsontree.Tree) {
	t.Helper()
	for id, want := range oracle {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("document %q unreadable", id)
		}
		if got.String() != want.String() {
			t.Fatalf("document %q corrupted:\ngot:  %s\nwant: %s", id, got, want)
		}
	}
}

// degradeAll writes to ids spread over every shard until each shard
// is degraded, recording which writes were applied in memory despite
// failing (the commit failed after the apply: readable now, durable
// after heal) versus refused outright with ErrDegraded. Returns the
// in-memory additions.
func degradeAll(t *testing.T, s *Store, wantErr error) map[string]*jsontree.Tree {
	t.Helper()
	applied := make(map[string]*jsontree.Tree)
	for i := 0; i < 4*len(s.shards); i++ {
		id := fmt.Sprintf("f%04d", i)
		doc := chaosDoc(1000 + i)
		err := s.PutTree(id, doc)
		if err == nil {
			t.Fatalf("put %s succeeded with the disk failing", id)
		}
		if errors.Is(err, ErrDegraded) {
			continue // gated before the apply: nothing stored
		}
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Fatalf("put %s: got %v, want injected %v", id, err, wantErr)
		}
		// The WAL force failed after the apply: the document is
		// readable (reads serve memory) and the heal snapshot will
		// make it durable.
		applied[id] = doc
	}
	d := s.Stats().Durability
	if !d.Degraded || d.DegradedShards != len(s.shards) {
		t.Fatalf("after failing writes on every shard: Degraded=%v DegradedShards=%d, want all %d",
			d.Degraded, d.DegradedShards, len(s.shards))
	}
	return applied
}

// waitHealed polls until no shard is degraded (the background probe's
// job once the fault is cleared).
func waitHealed(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := s.Stats().Durability
		if !d.Degraded {
			if d.WALHeals == 0 {
				t.Fatalf("healed without the probe recording a heal: %+v", d)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards still degraded after 5s: %+v", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosScenario runs the full degrade → read-only → heal → restart
// story for one injected fault shape.
func chaosScenario(t *testing.T, rule FaultRule, wantErr error) {
	dir := t.TempDir()
	fs := NewFaultFS(nil)
	s := openChaos(t, chaosOpts(dir, fs))
	oracle := mustPutN(t, s, 40)

	fs.Fail(rule)
	applied := degradeAll(t, s, wantErr)
	for id, doc := range applied {
		oracle[id] = doc
	}

	// Degraded is read-only, not down: every acknowledged (and
	// applied) document still reads back correctly, and new writes are
	// refused with the 503-mapped sentinel, not a disk error.
	checkOracle(t, s, oracle)
	if err := s.PutTree("gated", chaosDoc(0)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write to degraded shard: got %v, want ErrDegraded", err)
	}
	if _, err := s.Delete("c0000"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete on degraded shard: got %v, want ErrDegraded", err)
	}

	// Repair the disk; the probe heals (WAL reset + snapshot) with
	// exponential backoff and re-enables writes.
	fs.Clear()
	waitHealed(t, s)
	d := s.Stats().Durability
	if d.WALRetries == 0 {
		t.Fatalf("heal without recorded retries: %+v", d)
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("h%04d", i)
		doc := chaosDoc(2000 + i)
		if err := s.PutTree(id, doc); err != nil {
			t.Fatalf("put %s after heal: %v", id, err)
		}
		oracle[id] = doc
	}
	checkOracle(t, s, oracle)

	// A clean close and reopen (real filesystem) must recover exactly
	// the oracle: no acknowledged write lost, no corruption smuggled
	// in by the faulty window.
	if err := s.Close(); err != nil {
		t.Fatalf("close after heal: %v", err)
	}
	s2 := openDurable(t, Options{Shards: 2, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1})
	defer s2.Close()
	if s2.Len() != len(oracle) {
		t.Fatalf("recovered %d docs, want %d", s2.Len(), len(oracle))
	}
	checkOracle(t, s2, oracle)
}

func TestChaosWALWriteENOSPC(t *testing.T) {
	chaosScenario(t, FaultRule{Ops: OpWrite, Path: "wal-", Err: ErrNoSpace}, ErrNoSpace)
}

func TestChaosWALFsyncEIO(t *testing.T) {
	chaosScenario(t, FaultRule{Ops: OpSync, Path: "wal-", Err: ErrIO}, ErrIO)
}

func TestChaosWALShortWrite(t *testing.T) {
	// A torn half-write is the nastiest shape: bytes of the failed
	// record actually reach the file. The heal path truncates the torn
	// tail before rotating to a fresh generation, so the story must
	// end identically.
	chaosScenario(t, FaultRule{Ops: OpWrite, Path: "wal-", Err: ErrNoSpace, ShortWrite: true}, ErrNoSpace)
}

// TestChaosCrashWhileDegraded kills the process before any heal: the
// restart must recover exactly the acknowledged set — the torn or
// unflushed records of the failed writes must not surface as partial
// documents.
func TestChaosCrashWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil)
	s := openChaos(t, chaosOpts(dir, fs))
	oracle := mustPutN(t, s, 40)

	fs.Fail(FaultRule{Ops: OpWrite, Path: "wal-", Err: ErrNoSpace, ShortWrite: true})
	degradeAll(t, s, ErrNoSpace) // in-memory only; a crash sheds these
	s.crashForTest()

	s2 := openDurable(t, Options{Shards: 2, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1})
	defer s2.Close()
	if s2.Len() != len(oracle) {
		t.Fatalf("recovered %d docs, want exactly the %d acknowledged", s2.Len(), len(oracle))
	}
	checkOracle(t, s2, oracle)
	if torn := s2.Stats().Durability.Recovery.TornTails; torn == 0 {
		t.Fatalf("short-written WAL tails were not truncated at recovery: %+v", s2.Stats().Durability.Recovery)
	}
}

// TestChaosSnapshotFailureRetries: a failing segment build neither
// degrades the store (the WAL is fine, writes stay durable) nor stays
// failed forever — the maintenance loop retries with backoff and
// succeeds once the fault clears.
func TestChaosSnapshotFailureRetries(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil)
	opts := chaosOpts(dir, fs)
	opts.SnapshotEvery = 1 // every record tips the background snapshotter
	s := openChaos(t, opts)
	defer s.Close()

	fs.Fail(FaultRule{Ops: OpWrite, Path: ".tmp", Err: ErrNoSpace})
	oracle := mustPutN(t, s, 10)

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Durability.SnapshotErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background snapshotter never attempted (and failed) a build")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The failure is contained: not degraded, writes still accepted.
	d := s.Stats().Durability
	if d.Degraded {
		t.Fatalf("snapshot failure degraded the store: %+v", d)
	}
	if err := s.PutTree("post-fault", chaosDoc(7)); err != nil {
		t.Fatalf("put with snapshots failing: %v", err)
	}
	oracle["post-fault"] = chaosDoc(7)

	fs.Clear()
	base := s.Stats().Durability.Compactions
	deadline = time.Now().Add(5 * time.Second)
	for s.Stats().Durability.Compactions == base {
		if time.Now().After(deadline) {
			t.Fatalf("snapshotter never recovered after the fault cleared: %+v", s.Stats().Durability)
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkOracle(t, s, oracle)
}

// TestChaosBulkMidBatchDegraded: a WAL failure part-way through a
// bulk ingest aborts the batch with an ErrDegraded-wrapped error, and
// the result's Durable count tells the client exactly which applied
// prefix it does not need to re-upload — the healthy shards' buffered
// records are forced durable before the error is reported.
func TestChaosBulkMidBatchDegraded(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil)
	s := openChaos(t, chaosOpts(dir, fs))
	defer s.Close()

	// Clean batch first: everything inserted is durable.
	res, err := s.BulkNDJSON(strings.NewReader("{\"a\":1}\n{\"a\":2}\n"))
	if err != nil || res.Durable != len(res.IDs) || len(res.IDs) != 2 {
		t.Fatalf("clean bulk: %d ids, %d durable, err %v", len(res.IDs), res.Durable, err)
	}

	// Break exactly shard 0's WAL and trip it into degraded mode.
	fs.Fail(FaultRule{Ops: OpWrite | OpSync, Path: "shard-0000", Err: ErrNoSpace})
	var shard0ID string
	for i := 0; ; i++ {
		id := fmt.Sprintf("trip%d", i)
		if s.shardIndex(id) == 0 {
			shard0ID = id
			break
		}
	}
	if err := s.PutTree(shard0ID, chaosDoc(0)); err == nil {
		t.Fatal("put to broken shard succeeded")
	}

	// The batch aborts at the first auto-ID that hashes to shard 0;
	// the lines applied before it (on shard 1) are reported durable.
	var lines strings.Builder
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&lines, "{\"b\":%d}\n", i)
	}
	res, err = s.BulkNDJSON(strings.NewReader(lines.String()))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("mid-batch bulk: got %v, want ErrDegraded", err)
	}
	if len(res.IDs) >= 32 {
		t.Fatalf("bulk reported %d inserted despite aborting", len(res.IDs))
	}
	if res.Durable != len(res.IDs) {
		t.Fatalf("durable %d != applied %d: the healthy shards' force must cover the whole applied prefix", res.Durable, len(res.IDs))
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d durable", res.Durable)) {
		t.Fatalf("error does not report the durable count: %v", err)
	}
	for _, id := range res.IDs {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("durably-reported %q unreadable", id)
		}
	}
}

// TestChaosFaultOnce: a transient glitch (Once rule) degrades the
// shard sticky — one failed write is enough to distrust the log — and
// the very first heal attempt succeeds because the disk already
// recovered.
func TestChaosFaultOnce(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(nil)
	s := openChaos(t, chaosOpts(dir, fs))
	defer s.Close()
	oracle := mustPutN(t, s, 8)

	fs.Fail(FaultRule{Ops: OpWrite, Path: "wal-", Err: ErrIO, Once: true})
	err := s.PutTree("glitch", chaosDoc(99))
	if err == nil {
		t.Fatal("write during glitch succeeded")
	}
	if !errors.Is(err, ErrDegraded) {
		// The commit failed after the apply: readable, healed durable.
		oracle["glitch"] = chaosDoc(99)
	}
	waitHealed(t, s)
	if err := s.PutTree("after", chaosDoc(100)); err != nil {
		t.Fatalf("put after self-heal: %v", err)
	}
	oracle["after"] = chaosDoc(100)
	checkOracle(t, s, oracle)
	if n := fs.Injected(); n == 0 {
		t.Fatal("fault never fired")
	}
}
