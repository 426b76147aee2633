package store

// wal.go: the per-shard append-only write-ahead log. Every mutation
// (put, delete) is framed as a length-prefixed, CRC-protected record
// and appended to the shard's active segment before it is applied to
// the in-memory maps; recovery (recover.go) replays the segments to
// rebuild exactly the acknowledged state. Appenders share fsyncs
// through a group-commit protocol: while one fsync is in flight,
// concurrent appenders buffer their records and the next syncer
// flushes them all with a single fsync.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"jsonlogic/internal/jsontree"
)

// FsyncPolicy selects when the WAL is fsynced to stable storage.
type FsyncPolicy uint8

const (
	// FsyncAlways (the zero value, and the default) syncs before every
	// acknowledgement: an acknowledged write survives both process and
	// machine crashes. Group commit amortizes the fsync across
	// concurrent writers and across each bulk-ingest batch.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a 100ms background timer, which no segment
	// build ever delays: a crash may lose at most the last interval of
	// acknowledged writes.
	FsyncInterval
	// FsyncOff never syncs explicitly; the operating system writes the
	// log back at its leisure. A process crash loses at most the
	// buffered tail, a machine crash arbitrarily more.
	FsyncOff
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", uint8(p))
}

// ParseFsyncPolicy parses the flag spelling: "always", "interval" or
// "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or off)", s)
}

// Record framing of WAL segments:
//
//	u32 payloadLen | payload | u32 crc32(payload)
//	payload := op(1) | u32 idLen | id | doc
//
// all integers little-endian. Files begin with a short magic line so a
// foreign file is rejected before any frame is trusted.
const (
	opPut    byte = 1 // doc holds the compact JSON of the stored tree
	opDelete byte = 2 // doc empty

	walMagic = "JLWAL1\n"

	// maxRecordPayload bounds one record's payload; anything larger is
	// treated as a torn length prefix. Comfortably above the daemon's
	// 64 MiB request-body bound.
	maxRecordPayload = 80 << 20

	walBufSize = 256 << 10
)

// walRecord is one logged mutation as replay reads it back.
type walRecord struct {
	op  byte
	id  string
	doc string
}

// encodeRecord frames one mutation: a put of t under id, or — t nil —
// a delete of id. The document is rendered straight into the frame.
func encodeRecord(id string, t *jsontree.Tree) []byte {
	op, docHint := opDelete, 0
	if t != nil {
		op, docHint = opPut, 16*t.Len()
	}
	le := binary.LittleEndian
	buf := make([]byte, 4, 4+1+4+len(id)+docHint+4)
	buf = append(buf, op)
	buf = le.AppendUint32(buf, uint32(len(id)))
	buf = append(buf, id...)
	if t != nil {
		buf = t.AppendJSON(buf, t.Root())
	}
	le.PutUint32(buf, uint32(len(buf)-4))
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
}

// errTorn marks a record that cannot be trusted: a short read, an
// implausible length prefix or a CRC mismatch. Replay truncates the
// file at the last good frame boundary when it sees this.
var errTorn = errors.New("torn or corrupt record")

// readRecord reads one framed record. It returns io.EOF exactly at a
// clean frame boundary and errTorn for every other failure; n is the
// number of bytes consumed from r either way.
func readRecord(r *bufio.Reader) (rec walRecord, n int64, err error) {
	var lenBuf [4]byte
	k, err := io.ReadFull(r, lenBuf[:])
	if err == io.EOF {
		return walRecord{}, 0, io.EOF
	}
	if err != nil {
		return walRecord{}, int64(k), fmt.Errorf("%w: short length prefix", errTorn)
	}
	payloadLen := binary.LittleEndian.Uint32(lenBuf[:])
	if payloadLen < 5 || payloadLen > maxRecordPayload {
		return walRecord{}, 4, fmt.Errorf("%w: implausible payload length %d", errTorn, payloadLen)
	}
	body := make([]byte, int(payloadLen)+4)
	k, err = io.ReadFull(r, body)
	if err != nil {
		return walRecord{}, 4 + int64(k), fmt.Errorf("%w: short payload", errTorn)
	}
	payload := body[:payloadLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[payloadLen:]) {
		return walRecord{}, 4 + int64(len(body)), fmt.Errorf("%w: CRC mismatch", errTorn)
	}
	idLen := binary.LittleEndian.Uint32(payload[1:5])
	if 5+int(idLen) > len(payload) {
		return walRecord{}, 4 + int64(len(body)), fmt.Errorf("%w: id length overruns payload", errTorn)
	}
	rec = walRecord{
		op:  payload[0],
		id:  string(payload[5 : 5+idLen]),
		doc: string(payload[5+idLen:]),
	}
	return rec, 4 + int64(len(body)), nil
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%010d.log", gen))
}

// ErrWAL marks every write-ahead-log failure (append, fsync, rotate,
// close, size bound): errors.Is(err, ErrWAL) distinguishes a
// server-side durability fault from caller-input problems, which is
// how the daemon picks 500 over 400.
var ErrWAL = errors.New("write-ahead log failure")

// errWALClosed is the sticky error of a cleanly closed WAL. It is
// deliberately NOT an ErrWAL: closing is lifecycle, not failure.
var errWALClosed = errors.New("store: write-ahead log is closed")

// shardWAL is the writer side of one shard's log. Appends are ordered
// by the owning shard's lock (the caller appends while holding it, so
// log order always equals apply order); the WAL's own mutex covers the
// buffered writer and the group-commit state.
type shardWAL struct {
	shard  int
	dir    string
	fs     VFS
	policy FsyncPolicy

	// degraded is set alongside every sticky I/O failure (never for a
	// clean close) and cleared only by a completed heal — after reset
	// started a fresh generation AND a snapshot re-captured the shard's
	// memory state. Write paths gate on it lock-free; the background
	// probe polls it.
	degraded atomic.Bool

	mu   sync.Mutex
	cond sync.Cond // waits on mu for the in-flight group fsync or seal
	f    File      // nil from a cut until its seal succeeds
	bw   *bufio.Writer
	gen  uint64
	err  error // sticky: first I/O failure (or errWALClosed)

	// sealing is set from a cut until its seal attaches the successor
	// generation; meanwhile bw buffers into pend.
	sealing bool
	pend    bytes.Buffer

	// Group commit: writeSeq counts buffered records, syncSeq records
	// proven durable. While syncing is set one goroutine owns the
	// in-flight fsync and others wait on cond; the owner captures
	// writeSeq before flushing, so everyone at or below the captured
	// sequence is released by a single fsync.
	writeSeq uint64
	syncSeq  uint64
	syncing  bool

	segRecords uint64 // records in the active segment (the roll trigger)

	appends uint64
	bytes   uint64
	syncs   uint64
}

// openShardWAL opens (creating if necessary) the active segment of a
// shard's log for appending. segRecords is the number of records the
// recovered tail of that segment already holds.
func openShardWAL(fs VFS, shard int, dir string, gen uint64, policy FsyncPolicy, segRecords uint64) (*shardWAL, error) {
	f, err := fs.OpenFile(walPath(dir, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal shard %d: %w: %w", shard, ErrWAL, err)
	}
	w := &shardWAL{
		shard:      shard,
		dir:        dir,
		fs:         fs,
		policy:     policy,
		f:          f,
		bw:         bufio.NewWriterSize(f, walBufSize),
		gen:        gen,
		segRecords: segRecords,
	}
	w.cond.L = &w.mu
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: wal shard %d: %w: %w", shard, ErrWAL, err)
	}
	if st.Size() == 0 {
		// Fresh segment: the magic travels with the first flush. An
		// empty or short file replays as an empty log, so a crash
		// before that flush is harmless — but the directory entry must
		// be durable before any fsynced record is acknowledged, or a
		// machine crash could drop the whole file.
		w.bw.WriteString(walMagic)
		if err := fs.SyncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: wal shard %d: sync dir: %w: %w", shard, ErrWAL, err)
		}
	}
	return w, nil
}

// setErr records a sticky I/O failure and flips the shard into
// degraded read-only mode. Caller holds w.mu.
func (w *shardWAL) setErr(err error) {
	if w.err == nil {
		w.err = err
	}
	w.degraded.Store(true)
}

// append writes one encodeRecord frame into the buffered writer and
// returns its commit sequence number and the active segment's record
// count including it (the roll trigger). The caller holds the owning
// shard's lock, which is what orders the log; append itself never
// blocks on I/O beyond a buffer spill.
func (w *shardWAL) append(frame []byte) (seq, n uint64, err error) {
	// Enforce the replay-side frame bound at write time: a larger
	// record would be fsynced, acknowledged, and then rejected as a
	// torn tail on reopen — truncating it and everything after it.
	// Rejecting here is a per-record error, not a WAL failure.
	// Deliberately not an ErrWAL: the input is the problem (the log is
	// healthy), so the daemon's 400-vs-500 classification stays honest.
	if payload := len(frame) - 8; payload > maxRecordPayload {
		return 0, 0, fmt.Errorf("store: wal shard %d: record payload %d bytes exceeds the %d-byte bound", w.shard, payload, maxRecordPayload)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, 0, w.err
	}
	if _, err := w.bw.Write(frame); err != nil {
		w.setErr(fmt.Errorf("store: wal shard %d: append: %w: %w", w.shard, ErrWAL, err))
		return 0, 0, w.err
	}
	w.writeSeq++
	w.segRecords++
	w.appends++
	w.bytes += uint64(len(frame))
	return w.writeSeq, w.segRecords, nil
}

// commit makes the record at seq durable per the fsync policy and
// returns when the policy's guarantee holds for it. Under FsyncAlways
// that is a (group) fsync; under the other policies the background
// flusher provides the guarantee and commit only reports sticky
// errors.
func (w *shardWAL) commit(seq uint64) error {
	if w.policy == FsyncAlways {
		return w.groupSync(seq)
	}
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if errors.Is(err, errWALClosed) {
		// A clean close raced this commit; close flushed and fsynced
		// every appended record, so the guarantee already holds.
		return nil
	}
	return err
}

// syncNow flushes and fsyncs everything appended so far (used by the
// interval flusher, bulk-ingest batch ends and Close).
func (w *shardWAL) syncNow() error {
	w.mu.Lock()
	seq := w.writeSeq
	w.mu.Unlock()
	return w.groupSync(seq)
}

// groupSync blocks until syncSeq ≥ seq. At most one fsync is in
// flight; the goroutine that starts it captures the current writeSeq,
// flushes the buffer under the lock, then fsyncs outside it so that
// concurrent appenders keep buffering. Everyone whose record was
// captured is released together — one fsync per group, not per record.
func (w *shardWAL) groupSync(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncSeq < seq && w.err == nil {
		if w.syncing || w.sealing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.writeSeq
		err := w.bw.Flush()
		f := w.f
		w.mu.Unlock()
		if err == nil {
			err = f.Sync()
		}
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.setErr(fmt.Errorf("store: wal shard %d: sync: %w: %w", w.shard, ErrWAL, err))
		} else if target > w.syncSeq {
			w.syncSeq = target
			w.syncs++
		}
		w.cond.Broadcast()
	}
	if w.syncSeq >= seq {
		// The record is durable — even when a sticky error (or a clean
		// close, which syncs everything first) arrived afterwards.
		return nil
	}
	return w.err
}

// flushOnly spills the user-space buffer to the OS without fsync (the
// FsyncOff flusher).
func (w *shardWAL) flushOnly() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.setErr(fmt.Errorf("store: wal shard %d: flush: %w: %w", w.shard, ErrWAL, err))
	}
	return w.err
}

// cut ends the active generation after the last appended record
// without waiting on the disk: the buffered tail spills into the old
// file, and later appends buffer in memory until seal, which the caller
// runs on any goroutine, has made the old generation durable and
// attached its successor. It returns the successor's number. The
// caller holds the owning shard's lock, so no append races the cut.
func (w *shardWAL) cut() (gen uint64, seal func() error, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idle()
	if w.err != nil {
		return 0, nil, w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.setErr(fmt.Errorf("store: wal shard %d: cut: %w: %w", w.shard, ErrWAL, err))
		return 0, nil, w.err
	}
	old, sealed, gen := w.f, w.writeSeq, w.gen+1
	w.f, w.sealing, w.segRecords = nil, true, 0
	w.pend.Reset()
	w.pend.WriteString(walMagic)
	w.bw.Reset(&w.pend)
	return gen, func() error { return w.seal(old, sealed, gen) }, nil
}

// seal fsyncs and closes the generation a cut ended, and only then
// creates its successor gen: recovery refuses a torn generation that
// has a successor, so none may exist beside an unsealed predecessor.
// It then attaches the successor, writing out the records buffered
// since the cut. A failure is the WAL's sticky error.
func (w *shardWAL) seal(old File, sealed, gen uint64) error {
	err := old.Sync()
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	var f File
	if err == nil {
		f, err = w.create(gen, os.O_EXCL)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sealing = false
	w.cond.Broadcast()
	if err == nil {
		w.bw.Flush() // into pend, which cannot fail
		w.f, w.gen = f, gen
		w.bw.Reset(f)
		_, err = f.Write(w.pend.Bytes())
	}
	if err != nil {
		w.setErr(fmt.Errorf("store: wal shard %d: seal: %w: %w", w.shard, ErrWAL, err))
		return w.err
	}
	w.syncSeq = max(w.syncSeq, sealed)
	return nil
}

// create makes generation gen's file, its directory entry durable
// before any record in it can be acknowledged. flag is O_EXCL after a
// cut and O_TRUNC on a reset.
func (w *shardWAL) create(gen uint64, flag int) (File, error) {
	f, err := w.fs.OpenFile(walPath(w.dir, gen), os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("sync dir: %w", err)
	}
	return f, nil
}

// idle waits out an in-flight group fsync and seal. Caller holds w.mu.
func (w *shardWAL) idle() {
	for w.syncing || w.sealing {
		w.cond.Wait()
	}
}

// close flushes, fsyncs and closes the active segment. Further appends
// fail with errWALClosed. Idempotent.
func (w *shardWAL) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idle()
	if w.f == nil {
		if errors.Is(w.err, errWALClosed) {
			return nil
		}
		return w.err
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("store: wal shard %d: close: %w: %w", w.shard, ErrWAL, err)
		}
	}
	keep(w.bw.Flush())
	keep(w.f.Sync())
	if first == nil {
		// Everything appended is now durable; let a commit racing this
		// close observe that instead of reporting a failure for a
		// write that close just fsynced.
		w.syncSeq = w.writeSeq
	}
	keep(w.f.Close())
	w.f = nil
	if w.err == nil {
		if first != nil {
			w.err = first
		} else {
			w.err = errWALClosed
		}
	}
	return first
}

// reset abandons a failed WAL generation and starts a fresh one on a
// (possibly) recovered disk: the heal path's first half. It is a
// no-op when the WAL is healthy and an error on a closed WAL. On
// success w.err is clear and appends work again — but w.degraded
// stays set; the caller (healShard) clears it only after a snapshot
// has re-captured the shard's memory state, because records that were
// buffered when the disk failed never reached the file and only a
// fresh segment makes disk and memory converge again. Nothing acked
// is at risk either way: an ack requires the flush+fsync that failed.
func (w *shardWAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idle()
	if w.err == nil {
		return nil // healthy (or a previous reset already succeeded)
	}
	if errors.Is(w.err, errWALClosed) {
		return w.err
	}
	if w.f != nil {
		// Abandon the broken descriptor; its buffered tail was never
		// acknowledged, so dropping it loses nothing promised.
		w.f.Close()
		w.f = nil
	}
	// The abandoned generation may end mid-frame (a short write, or a
	// flush that died partway through the buffer). Recovery truncates
	// torn tails only off the *last* generation and refuses a torn
	// non-last file, so cut this one back to its last whole frame now,
	// before a successor generation exists.
	if err := truncateTornTail(w.fs, walPath(w.dir, w.gen)); err != nil {
		return fmt.Errorf("store: wal shard %d: reset: %w: %w", w.shard, ErrWAL, err)
	}
	// O_TRUNC, not O_EXCL: a previous reset attempt (or a failed seal)
	// may have created the file; nothing in it was ever acknowledged.
	f, err := w.create(w.gen+1, os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("store: wal shard %d: reset: %w: %w", w.shard, ErrWAL, err)
	}
	w.f, w.gen, w.segRecords = f, w.gen+1, 0
	w.bw.Reset(f)
	w.bw.WriteString(walMagic)
	// Nothing is pending in the new generation; commits blocked on the
	// failure have already returned their errors.
	w.syncSeq = w.writeSeq
	w.err = nil
	return nil
}

// scanWAL reads the log at path frame by frame, handing each whole,
// CRC-valid record to apply (nil: just scan). good is the offset past
// the last such record and size the file's length, so good < size
// means the file ends in a torn tail — from a short or foreign header
// (good 0) to a short frame, an implausible length or a CRC mismatch —
// which is the caller's to truncate or to refuse. An error from apply
// aborts the scan.
func scanWAL(fs VFS, path string, apply func(walRecord) error) (records int, good, size int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	size = st.Size()
	br := bufio.NewReaderSize(f, walBufSize)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		// An empty file is a segment created but never flushed (nothing
		// torn: good = size = 0); in any other, nothing is trustworthy.
		return 0, 0, size, nil
	}
	good = int64(len(walMagic))
	for {
		rec, n, err := readRecord(br)
		if err != nil { // io.EOF at a frame boundary, errTorn anywhere else
			return records, good, size, nil
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return records, good, size, fmt.Errorf("%s: record %d: %w", path, records, err)
			}
		}
		records++
		good += n
	}
}

// truncateTornTail cuts the WAL at path back to its last whole record
// — the repair replayWAL performs on the active generation at
// recovery, applied eagerly when a failed generation is about to stop
// being the last.
func truncateTornTail(fs VFS, path string) error {
	_, good, size, err := scanWAL(fs, path, nil)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil || good == size {
		return err
	}
	return fs.Truncate(path, good)
}

// crashForTest abandons the WAL the way a killed process would: the
// user-space buffer is discarded unflushed and the descriptor is
// closed without fsync. Only tests call this.
func (w *shardWAL) crashForTest() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idle()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.err == nil {
		w.err = errWALClosed
	}
}

// counters snapshots the WAL's statistics.
func (w *shardWAL) counters() (appends, bytes, syncs, segRecords uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	err = w.err
	if errors.Is(err, errWALClosed) {
		err = nil
	}
	return w.appends, w.bytes, w.syncs, w.segRecords, err
}

// segmentRecords returns the record count of the active segment.
func (w *shardWAL) segmentRecords() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segRecords
}
