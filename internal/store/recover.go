package store

// recover.go: opening a durable store. Open maps, per shard, the
// newest segment file that validates end-to-end (magic, footer,
// whole-file CRC) and replays only the WAL generations at or after it
// into the memtable, truncating a torn tail off the active WAL
// segment. Mapping a segment is O(1) in the document count — no JSON
// is parsed and no posting list rebuilt — so open time is governed by
// the WAL tail alone. The layout under Options.DataDir:
//
//	MANIFEST.json            format version + shard count + index depth
//	shard-0000/
//	  seg-0000000003.seg     state at the instant wal-3 started (mmap'd)
//	  wal-0000000003.log     mutations since that instant (active tail)
//
// Generation g's segment pairs with generation g's WAL: seg-g is the
// state at the moment wal-g began, so recovery is map(seg-G) then
// replay wal-G, wal-G+1, … for the greatest valid G. Failed segment
// builds leave extra WAL generations behind (a cut happens before
// the segment is written); they replay in order like any
// other. A shard whose base would be a snap-*.snap record stream —
// the format pre-segment builds wrote — is refused (errLegacySnapshot)
// rather than opened without the documents only that file holds.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jsonlogic/internal/jsontree"
)

// manifest pins the on-disk format, the shard count and the index
// depth bound. The shard count is authoritative: document IDs are
// routed to shard files by hash, so reopening with a different count
// would scatter replay across the wrong directories. The depth bound
// is authoritative for the same reason one level up: segment posting
// lists are depth-bounded at write time, so reopening with a larger
// bound would have the planner probe terms the segments never indexed
// and silently miss matches. A manifest written before the field
// existed adopts the configured depth and is rewritten.
type manifest struct {
	Version  int `json:"version"`
	Shards   int `json:"shards"`
	MaxDepth int `json:"max_index_depth,omitempty"`
}

const manifestVersion = 1

// durability is the durable half of a Store: one WAL per shard plus
// the roll, flush and heal state. Nil on in-memory stores.
type durability struct {
	dir       string
	fs        VFS
	policy    FsyncPolicy
	rollEvery uint64        // Options.SnapshotEvery; 0 disables write-triggered rolls
	retryBase time.Duration // initial heal backoff

	wals     []*shardWAL
	recovery RecoveryStats
	lock     *os.File // flock'd LOCK file; held until Close

	snapshotErrors atomic.Uint64
	compactions    atomic.Uint64 // segment builds (merge + swap) completed

	// Degraded-mode telemetry: heal attempts on degraded shards and
	// heals that completed (fresh WAL generation + reconciling
	// segment, writes re-enabled).
	walRetries atomic.Uint64
	walHeals   atomic.Uint64

	buildMu     sync.Mutex      // one write-triggered build at a time
	beforeBuild func(shard int) // test hook: runs as each segment build starts

	// stop ends the flush and heal loops; bg counts what Close waits
	// for — those loops, the WAL seals and the segment builds.
	stop chan struct{}
	bg   sync.WaitGroup

	// closeOnce runs the shutdown sequence exactly once (Close or
	// crashForTest); closedCh is closed after closeErr is final, so
	// concurrent Close calls block until the result exists instead of
	// racing the first closer's writes.
	closeOnce sync.Once
	closedCh  chan struct{}
	closeErr  error
}

func (d *durability) shardDir(i int) string {
	return filepath.Join(d.dir, fmt.Sprintf("shard-%04d", i))
}

// errLegacySnapshot fails Open on a shard directory whose newest base
// is a snap-*.snap record stream, the on-disk format of pre-segment
// builds, which this build no longer reads.
var errLegacySnapshot = errors.New("legacy snapshot, convert with a pre-segment build: this build reads only seg-*.seg bases (a build that still loads snap-*.snap rewrites the shard as a segment on its next snapshot)")

// RecoveryStats reports what Open found and repaired.
type RecoveryStats struct {
	// SegmentsMapped counts shards restored by mapping a segment file;
	// SegmentDocs the documents those segments hold.
	SegmentsMapped int `json:"segments_mapped"`
	SegmentDocs    int `json:"segment_docs"`
	// InvalidSegments counts segment files that failed end-to-end
	// validation (torn footer, CRC mismatch, implausible structure) and
	// were skipped in favor of an older generation — the torn-segment
	// recovery counter /metrics exposes.
	InvalidSegments int `json:"invalid_segments"`
	// WALSegments and WALRecordsReplayed cover the replayed log tail.
	WALSegments        int `json:"wal_segments"`
	WALRecordsReplayed int `json:"wal_records_replayed"`
	// TornTails counts active segments that ended mid-record and were
	// truncated back to the last whole record; TruncatedBytes is the
	// total amount cut.
	TornTails      int   `json:"torn_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// StaleTempFiles counts leftover segment-build temp files removed.
	StaleTempFiles int `json:"stale_temp_files"`
}

// Open opens (creating if necessary) a durable Store rooted at
// opts.DataDir, recovering whatever a previous process made durable:
// the latest valid segment per shard plus the replayed WAL tail. A
// torn write at the end of an active segment — the fingerprint of a
// crash mid-append — is truncated away; corruption anywhere else is an
// error, never a silent gap. Segments are mapped, not rebuilt: only
// the replayed WAL tail is indexed into the memtable. RecoveryStats
// (via Stats) reports what was found. See New for the in-memory
// variant.
func Open(opts Options) (*Store, error) { return open(opts, retryBackoff) }

// open is Open with the initial heal backoff as a parameter, which the
// chaos tests shorten.
func open(opts Options, retryBase time.Duration) (*Store, error) {
	if opts.DataDir == "" {
		return nil, errors.New("store: Open requires Options.DataDir; use New for an in-memory store")
	}
	opts = normalizeOptions(opts)
	fs := opts.VFS
	if err := fs.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// One owner per data directory: concurrent processes would
	// interleave independent buffered flushes into the same O_APPEND
	// segments and truncate each other's tails during recovery. The
	// flock dies with the process, so a crash never wedges a restart.
	lock, err := lockDataDir(opts.DataDir)
	if err != nil {
		return nil, err
	}
	locked := true
	defer func() {
		if locked {
			lock.Close()
		}
	}()
	// Sweep manifest temp files orphaned by a crash inside
	// writeFileAtomic (the shard-directory sweep below only covers
	// segment-build leftovers).
	if ents, err := fs.ReadDir(opts.DataDir); err == nil {
		for _, e := range ents {
			if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
				fs.Remove(filepath.Join(opts.DataDir, e.Name()))
			}
		}
	}
	mPath := filepath.Join(opts.DataDir, "MANIFEST.json")
	if raw, err := fs.ReadFile(mPath); err == nil {
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("store: open: %s: %w", mPath, err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("store: open: %s: format version %d, this build reads %d", mPath, m.Version, manifestVersion)
		}
		if m.Shards < 1 || m.Shards&(m.Shards-1) != 0 {
			// The shard mask arithmetic requires a power of two (New
			// rounds up; a manifest that disagrees is corrupt).
			return nil, fmt.Errorf("store: open: %s: invalid shard count %d (must be a power of two)", mPath, m.Shards)
		}
		// The manifest wins: the files on disk are laid out for its
		// shard count and their segments indexed to its depth bound.
		opts.Shards = m.Shards
		if m.MaxDepth > 0 {
			opts.MaxIndexDepth = m.MaxDepth
		} else {
			// Pre-segment manifest: adopt the configured depth (the one
			// every file so far was written under, since nothing else
			// was ever configurable) and pin it from now on.
			m.MaxDepth = opts.MaxIndexDepth
			raw, _ := json.Marshal(m)
			if err := writeFileAtomic(fs, mPath, append(raw, '\n')); err != nil {
				return nil, fmt.Errorf("store: open: write manifest: %w", err)
			}
		}
	} else if os.IsNotExist(err) {
		raw, _ := json.Marshal(manifest{Version: manifestVersion, Shards: opts.Shards, MaxDepth: opts.MaxIndexDepth})
		if err := writeFileAtomic(fs, mPath, append(raw, '\n')); err != nil {
			return nil, fmt.Errorf("store: open: write manifest: %w", err)
		}
	} else {
		return nil, fmt.Errorf("store: open: %w", err)
	}

	s := newStore(opts)
	d := &durability{
		dir:       opts.DataDir,
		fs:        fs,
		policy:    opts.Fsync,
		retryBase: retryBase,
		wals:      make([]*shardWAL, len(s.shards)),
		stop:      make(chan struct{}),
		closedCh:  make(chan struct{}),
	}
	if opts.SnapshotEvery > 0 {
		d.rollEvery = uint64(opts.SnapshotEvery)
	}
	s.dur = d
	defer func() {
		if locked { // failed: close whatever WALs are already open
			for _, w := range d.wals {
				if w != nil {
					w.close()
				}
			}
		}
	}()

	var rs RecoveryStats
	var maxSeq uint64
	for i := range s.shards {
		if err := s.recoverShard(i, &rs, &maxSeq); err != nil {
			return nil, err
		}
	}
	d.recovery = rs

	// A schema-enforcing store promises every resident document
	// conforms — the semantic planner's schema verdicts (short-circuits,
	// pruned terms) are only sound under that invariant — so recovered
	// documents are validated too. Data written without the schema (or
	// under a different one) fails the open rather than silently
	// weakening the invariant.
	if opts.Schema != nil {
		var verr error
		for _, sh := range s.shards {
			// sh.each resolves segment documents too: enforcement must
			// cover both tiers, so a schema-enforcing store trades the
			// O(1) open for the invariant (every resident doc conforms).
			eerr := sh.each(func(id string, t *jsontree.Tree) {
				if verr != nil {
					return
				}
				if err := s.validateSchema(t); err != nil {
					verr = fmt.Errorf("store: recovered document %q: %w", id, err)
				}
			})
			if verr == nil {
				verr = eerr
			}
			if verr != nil {
				break
			}
		}
		if verr != nil {
			return nil, fmt.Errorf("store: open: %w", verr)
		}
	}

	// Make the shard-directory entries themselves durable (the files
	// inside were synced as they were created).
	if err := fs.SyncDir(opts.DataDir); err != nil {
		return nil, fmt.Errorf("store: open: sync data dir: %w", err)
	}

	// Seed the bulk-ingest ID sequence past every auto-assigned ID a
	// previous process handed out — segment footers carry the counter
	// (covering IDs deleted before the segment), replayed puts cover
	// the WAL tail — so a restart never recycles an ID a client may
	// have observed.
	s.seq.Store(maxSeq)

	d.lock = lock
	locked = false // ownership passes to the store; released in Close

	// The heal probe always runs on a durable store: even under
	// FsyncAlways with automatic rolls disabled, a transient disk fault
	// would otherwise leave the store read-only forever. The flush loop
	// runs where a commit does not sync by itself.
	d.bg.Add(1)
	go d.healLoop(s)
	if d.policy != FsyncAlways {
		d.bg.Add(1)
		go d.flushLoop()
	}
	// Roll what the replayed tails already owe: no write would cut a
	// generation recovery left at or over the threshold.
	for i, sh := range s.shards {
		sh.mu.Lock()
		if d.due(d.wals[i].segmentRecords()) {
			s.startRoll(i)
		}
		sh.mu.Unlock()
	}
	return s, nil
}

// lockDataDir takes the exclusive advisory lock on dir's LOCK file,
// failing fast when another live process holds it. The locking
// primitive lives in lock_unix.go / lock_other.go.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open: %s is in use by another process (%v)", dir, err)
	}
	return f, nil
}

// noteAutoID raises *maxSeq past id when id is a bulk auto-assigned
// ID ("d<number>").
func noteAutoID(id string, maxSeq *uint64) {
	if len(id) < 2 || id[0] != 'd' {
		return
	}
	if n, err := strconv.ParseUint(id[1:], 10, 64); err == nil && n+1 > *maxSeq {
		*maxSeq = n + 1
	}
}

// recoverShard restores shard i from its directory, creating it on
// first open, and leaves d.wals[i] open for appending. maxSeq is
// raised past every auto-assigned ID seen in segments (their footers
// persist the counter) and replayed WAL puts.
func (s *Store) recoverShard(i int, rs *RecoveryStats, maxSeq *uint64) error {
	d := s.dur
	dir := d.shardDir(i)
	if err := d.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: recover shard %d: %w", i, err)
	}
	entries, err := d.fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: recover shard %d: %w", i, err)
	}
	type baseCand struct {
		gen    uint64
		name   string
		legacy bool // a snap-*.snap record stream, not a segment
	}
	var bases []baseCand
	var walGens []uint64
	for _, e := range entries {
		name := e.Name()
		switch gen, kind := parseGenName(name); kind {
		case "wal":
			walGens = append(walGens, gen)
		case "seg", "snap":
			bases = append(bases, baseCand{gen: gen, name: name, legacy: kind == "snap"})
		}
		if filepath.Ext(name) == ".tmp" {
			// A segment build that never reached its rename; the WAL
			// covering it is still intact.
			d.fs.Remove(filepath.Join(dir, name))
			rs.StaleTempFiles++
		}
	}
	// Descending generation; a segment outranks a same-generation
	// legacy snapshot (they hold identical state).
	sort.Slice(bases, func(a, b int) bool {
		if bases[a].gen != bases[b].gen {
			return bases[a].gen > bases[b].gen
		}
		return !bases[a].legacy
	})
	sort.Slice(walGens, func(a, b int) bool { return walGens[a] < walGens[b] }) // ascending

	// Latest segment that validates end-to-end wins; invalid ones are
	// skipped (never partially applied) in favor of older generations.
	// A segment is mapped, not loaded: O(1) in its document count.
	sh := s.shards[i]
	baseGen := uint64(0)
	for _, c := range bases {
		if c.legacy {
			// Reaching a legacy snapshot means no valid segment at or
			// above its generation covers it: its documents exist nowhere
			// else, and this build cannot read them. Skipping it would
			// open the shard without them.
			return fmt.Errorf("store: recover shard %d: %s: %w", i, filepath.Join(dir, c.name), errLegacySnapshot)
		}
		sr, err := openSegment(d.fs, segFilePath(dir, c.gen), c.gen, false)
		if err != nil {
			rs.InvalidSegments++
			continue
		}
		sh.seg = newSegTier(sr)
		if sr.seq > *maxSeq {
			*maxSeq = sr.seq
		}
		baseGen = c.gen
		rs.SegmentsMapped++
		rs.SegmentDocs += sr.n
		break
	}

	// Replay every WAL generation from the base on, in order. The set
	// must be contiguous — a missing middle segment would silently drop
	// a window of mutations, so it is an error, not a skip.
	replay := walGens[:0]
	for _, g := range walGens {
		if g >= baseGen {
			replay = append(replay, g)
		}
	}
	// The first replayed generation must be the base itself: segments
	// obsolete — and delete — everything before their generation, so a
	// later start means the covering base failed to validate and the
	// records bridging the gap are gone. Refuse to resurrect a partial
	// history.
	if len(replay) > 0 && replay[0] != baseGen {
		return fmt.Errorf("store: recover shard %d: no usable segment or snapshot for generation %d (WAL starts there, base is %d): unrecoverable gap", i, replay[0], baseGen)
	}
	activeGen := baseGen
	activeSegRecords := uint64(0)
	for k, g := range replay {
		if k > 0 && g != replay[k-1]+1 {
			return fmt.Errorf("store: recover shard %d: WAL generation gap: %d then %d", i, replay[k-1], g)
		}
		last := k == len(replay)-1
		records, torn, cut, err := s.replayWAL(walPath(dir, g), last, maxSeq)
		if err != nil {
			return fmt.Errorf("store: recover shard %d: %w", i, err)
		}
		if torn && !last {
			// Rotation seals (flushes + fsyncs) a segment before its
			// successor exists, so a torn non-final segment means the
			// disk lost synced data: refuse to guess. replayWAL left
			// the file untouched in this case, so the refusal holds
			// across restarts instead of destroying its own evidence.
			return fmt.Errorf("store: recover shard %d: %s is torn but newer generations exist", i, walPath(dir, g))
		}
		if torn {
			rs.TornTails++
			rs.TruncatedBytes += cut
		}
		rs.WALSegments++
		rs.WALRecordsReplayed += records
		activeGen = g
		activeSegRecords = uint64(records)
	}

	w, err := openShardWAL(d.fs, i, dir, activeGen, d.policy, activeSegRecords)
	if err != nil {
		return err
	}
	d.wals[i] = w
	return nil
}

// parseGenName classifies a shard-directory entry as a WAL segment
// ("wal"), an index segment file ("seg"), a legacy snapshot ("snap")
// or neither (""), returning its generation number.
func parseGenName(name string) (gen uint64, kind string) {
	for _, k := range [...][2]string{{"wal", ".log"}, {"seg", ".seg"}, {"snap", ".snap"}} {
		mid, ok := strings.CutPrefix(name, k[0]+"-")
		if mid, ok2 := strings.CutSuffix(mid, k[1]); ok && ok2 {
			if g, err := strconv.ParseUint(mid, 10, 64); err == nil {
				return g, k[0]
			}
		}
	}
	return 0, ""
}

// replayWAL applies one segment's records to the in-memory store
// through the one mutation body, raising *maxSeq past replayed
// auto-assigned IDs (puts of since-deleted documents included). A torn
// tail of the active (last) segment is truncated off the file so it
// can be appended to again; a torn non-last segment is reported but
// left untouched — the caller refuses recovery, and the evidence must
// survive for the next attempt to refuse too. records is the count
// applied, cut the bytes past the last whole record.
func (s *Store) replayWAL(path string, last bool, maxSeq *uint64) (records int, torn bool, cut int64, err error) {
	records, good, size, err := scanWAL(s.dur.fs, path, func(rec walRecord) error {
		switch rec.op {
		case opPut:
			t, err := jsontree.Parse(rec.doc)
			if err != nil {
				// The CRC passed but the payload is not a document we
				// ever wrote: format corruption, not a torn write.
				return err
			}
			s.write(rec.id, t, noLog)
			noteAutoID(rec.id, maxSeq)
		case opDelete:
			s.write(rec.id, nil, noLog)
		default:
			return fmt.Errorf("unknown op %d", rec.op)
		}
		return nil
	})
	if err != nil || good == size {
		return records, false, 0, err
	}
	if last {
		if err := s.dur.fs.Truncate(path, good); err != nil {
			return records, true, size - good, fmt.Errorf("%s: truncate torn tail: %w", path, err)
		}
	}
	return records, true, size - good, nil
}

// flushLoop syncs every shard's WAL each flushPeriod under
// FsyncInterval and flushes it to the OS under FsyncOff. It never
// builds a segment, so a build in flight cannot stretch the interval a
// crash may lose.
func (d *durability) flushLoop() {
	defer d.bg.Done()
	flush := time.NewTicker(flushPeriod)
	defer flush.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-flush.C:
		}
		for _, w := range d.wals {
			if d.policy == FsyncInterval {
				w.syncNow() // sticky errors surface via Stats/Close
			} else {
				w.flushOnly()
			}
		}
	}
}

// healLoop is the heal probe: it retries every shard that is degraded
// (its WAL failed) or whose last segment build failed, with per-shard
// exponential backoff, until the disk recovers.
func (d *durability) healLoop(s *Store) {
	defer d.bg.Done()
	probe := time.NewTicker(degradedPoll)
	defer probe.Stop()
	// Per-shard retry state, owned by this goroutine: when the next
	// attempt may run and the current backoff. The ticker fires often;
	// these gates are what implement "exponential backoff".
	healAt := make([]time.Time, len(d.wals))
	healBackoff := make([]time.Duration, len(d.wals))
	for {
		select {
		case <-d.stop:
			return
		case <-probe.C:
		}
		now := time.Now()
		for i, w := range d.wals {
			degraded := w.degraded.Load()
			if !degraded && !s.shards[i].rollFailed.Load() || now.Before(healAt[i]) {
				continue
			}
			if degraded {
				d.walRetries.Add(1)
			}
			if err := s.healShard(i); err != nil {
				healBackoff[i] = nextBackoff(healBackoff[i], d.retryBase)
				healAt[i] = now.Add(healBackoff[i])
				slog.Warn("store: shard heal failed; backing off",
					"shard", i, "degraded", degraded, "backoff", healBackoff[i], "err", err)
				continue
			}
			healBackoff[i] = 0
			if degraded {
				d.walHeals.Add(1)
				slog.Info("store: shard healed; writes re-enabled", "shard", i)
			}
		}
	}
}

// healShard brings a degraded shard back to writable: reset abandons
// the failed WAL generation and opens a fresh one, and a roll folds
// the shard's full in-memory state into a new segment — records the
// broken WAL dropped from its buffer were never acknowledged, but they
// were applied in memory, and the segment re-captures them so disk and
// memory reconverge. Only after both steps does the shard accept
// writes again. Each step is idempotent: if reset succeeds and the
// roll fails, the next probe finds a healthy WAL (reset no-ops) and
// retries just the roll — which is all a shard whose build failed
// needs.
func (s *Store) healShard(i int) error {
	w := s.dur.wals[i]
	if err := w.reset(); err != nil {
		return err
	}
	if err := s.rollShard(i); err != nil {
		return err
	}
	w.degraded.Store(false)
	return nil
}

// nextBackoff doubles cur within [base, maxRetryBackoff].
func nextBackoff(cur, base time.Duration) time.Duration {
	if cur <= 0 {
		return base
	}
	if cur *= 2; cur > maxRetryBackoff {
		cur = maxRetryBackoff
	}
	return cur
}

// degradedPoll is how often the heal probe scans for degraded shards.
// The scan is a per-shard atomic load when healthy, so it can afford
// to be frequent; actual heal attempts are paced by the exponential
// backoff (retryBackoff up to maxRetryBackoff).
const degradedPoll = 50 * time.Millisecond

// flushPeriod is the background sync period under FsyncInterval and
// the flush period under FsyncOff.
const flushPeriod = 100 * time.Millisecond

// retryBackoff is the initial backoff between heal attempts on a
// degraded shard or one whose segment build failed; it doubles per
// failure up to maxRetryBackoff.
const retryBackoff = 500 * time.Millisecond

// maxRetryBackoff caps the heal backoff.
const maxRetryBackoff = 30 * time.Second

// Close flushes and fsyncs every shard's WAL (whatever the fsync
// policy — a clean shutdown loses nothing), stops the flush and heal
// loops, closes the log files and returns once every segment build,
// running or waiting its turn, has installed or failed, so no file
// changes after it. Further
// writes fail. Close is idempotent and safe to call concurrently —
// every caller returns the one true result after the shutdown
// finished; on an in-memory store it is a no-op.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	d := s.dur
	d.closeOnce.Do(func() {
		defer close(d.closedCh)
		s.shutdown(func(w *shardWAL) {
			if err := w.close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		})
		d.lock.Close() // releases the flock
	})
	<-d.closedCh
	return d.closeErr
}

// crashForTest simulates an unclean process death: background loops
// stop and every WAL descriptor is closed with its user-space buffer
// discarded and no final fsync. What the store looks like after this
// is exactly what the fsync policy promised — tests reopen the
// directory and check.
func (s *Store) crashForTest() {
	d := s.dur
	if d == nil {
		return
	}
	d.closeOnce.Do(func() {
		defer close(d.closedCh)
		s.shutdown((*shardWAL).crashForTest)
		// A real process death releases the flock with the process;
		// closing the fd is the in-process equivalent.
		d.lock.Close()
		d.closeErr = errWALClosed
	})
	<-d.closedCh
}

// shutdown stops the background loops, ends every WAL with end and
// waits for the loops, the seals and the builds. end runs under the
// shard lock, where captures happen, so no capture follows it and the
// wait covers every build.
func (s *Store) shutdown(end func(*shardWAL)) {
	d := s.dur
	close(d.stop)
	for i, w := range d.wals {
		sh := s.shards[i]
		sh.mu.Lock()
		end(w)
		sh.mu.Unlock()
	}
	d.bg.Wait()
}

// writeFileAtomic writes data via a temp file and rename, fsyncing
// both the file and its directory.
func writeFileAtomic(fs VFS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(name)
		return err
	}
	if err := fs.Rename(name, path); err != nil {
		fs.Remove(name)
		return err
	}
	return fs.SyncDir(dir)
}
