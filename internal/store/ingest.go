package store

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
)

// BulkError records one failed line of a bulk ingest.
type BulkError struct {
	// Line is the 1-based input line number.
	Line int
	// Err is the parse failure. The line is skipped; the rest of the
	// batch proceeds.
	Err error
}

// BulkResult reports a bulk NDJSON ingest.
type BulkResult struct {
	// IDs are the assigned document IDs, in input order, for the lines
	// that parsed.
	IDs []string
	// Errors lists the lines that failed to parse.
	Errors []BulkError
	// Durable is how many of IDs (a prefix, in input order) are known
	// durable per the store's fsync policy. On a clean batch it equals
	// len(IDs); on a mid-batch WAL failure it is the count the client
	// need not re-upload — later lines were applied in memory but their
	// WAL records may not have survived. On an in-memory store it
	// equals len(IDs) (there is no durability to lose).
	Durable int
}

// BulkNDJSON ingests one JSON document per non-blank line, assigning
// each a fresh sequential ID ("d00000000", …). A malformed line fails
// alone and is reported in the result; the returned error reports a
// failure of the reader itself (an I/O error or an oversized line),
// after which the stream cannot be resynchronized — documents ingested
// before the failure remain stored.
//
// Lines are split by engine.ScanNDJSON, the line rule of the engine's
// NDJSON readers, and parsed by jsontree.Parse, the route of Put, so a
// document is refused by bulk exactly when Put refuses it.
//
// On a durable store, WAL appends are batched: per-line records are
// buffered as they are applied and forced durable once at the end of
// the stream, so fsync=always pays one sync per touched shard per
// batch instead of one per document. The result is acknowledged only
// after that final force; a WAL failure aborts the batch with the
// documents ingested so far reported in the result.
func (s *Store) BulkNDJSON(r io.Reader) (BulkResult, error) {
	var res BulkResult
	// abort ends the batch on err, first forcing the shards' buffered
	// records durable: the result's IDs are promised to be "already
	// stored", which must survive a crash. A failure of that force
	// matters just as much, so it travels with err; only on a clean
	// force is the applied prefix known durable.
	abort := func(err error) error {
		if cerr := s.commitBulk(); cerr != nil {
			return errors.Join(err, cerr)
		}
		res.Durable = len(res.IDs)
		return err
	}
	// failedLine is the line whose write stopped the scan, 0 if none.
	failedLine := 0
	err := engine.ScanNDJSON(r, func(line int, text string) error {
		t, err := jsontree.Parse(text)
		if err != nil {
			res.Errors = append(res.Errors, BulkError{Line: line, Err: err})
			return nil
		}
		// Schema enforcement is per line, like parse errors: one
		// nonconforming document is rejected without aborting the batch.
		if err := s.validateSchema(t); err != nil {
			res.Errors = append(res.Errors, BulkError{Line: line, Err: fmt.Errorf("store: bulk line %d: %w", line, err)})
			return nil
		}
		// Draw sequence IDs until one inserts: taken IDs (user-chosen
		// names, or a concurrent Put racing the sequence) are skipped
		// atomically, never overwritten.
		for {
			id := fmt.Sprintf("d%08d", s.seq.Add(1)-1)
			ok, err := s.write(id, t, ifAbsent|deferCommit)
			if err != nil {
				failedLine = line
				return err
			}
			if ok {
				res.IDs = append(res.IDs, id)
				return nil
			}
		}
	})
	if err != nil {
		err = abort(err)
		if failedLine > 0 {
			err = fmt.Errorf("bulk line %d (after %d durable): %w", failedLine, res.Durable, err)
		}
		return res, err
	}
	if err := s.commitBulk(); err != nil {
		return res, fmt.Errorf("bulk commit (0 of %d lines known durable): %w", len(res.IDs), err)
	}
	res.Durable = len(res.IDs)
	return res, nil
}

// commitBulk forces every shard's buffered WAL tail durable per the
// fsync policy — the group commit that ends a bulk batch. The
// per-shard fsyncs are independent, so they run concurrently: the
// batch waits roughly one fsync latency, not shard-count of them.
// Untouched shards are free (syncNow returns without syncing when
// nothing is pending). Shards already degraded are skipped: every
// write that touched one has already returned its error to the
// caller unacknowledged, so forcing it can only re-report the sticky
// error and mask the healthy shards' clean commit — which is exactly
// the durable prefix a mid-batch abort wants to certify.
func (s *Store) commitBulk() error {
	if s.dur == nil {
		return nil
	}
	errs := make([]error, len(s.dur.wals))
	var wg sync.WaitGroup
	for i, w := range s.dur.wals {
		if w.degraded.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.dur.policy == FsyncAlways {
				errs[i] = w.syncNow()
			} else {
				errs[i] = w.commit(0) // the flush loop syncs; report sticky errors
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
