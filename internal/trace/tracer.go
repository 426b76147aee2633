package trace

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize bounds the slow-query ring when Options.RingSize is
// zero.
const DefaultRingSize = 64

// Options configure a Tracer.
//
// Note the SlowQuery zero value: constructing a Tracer with a zero
// threshold means "every query is slow" (the end-to-end tests'
// configuration). Callers that want a Tracer with slow detection off
// — sampling only, or fully disabled — must set SlowQuery negative.
// Not constructing a Tracer at all (nil) disables tracing outright.
type Options struct {
	// SampleEvery arms a trace for 1 in N queries; 0 (or negative)
	// disables sampling.
	SampleEvery int
	// SlowQuery is the slow-query threshold: a traced query whose total
	// wall time reaches it is kept as "slow", logged, and pushed onto
	// the ring. 0 keeps every query; negative disables slow detection.
	SlowQuery time.Duration
	// RingSize bounds the kept-trace ring (default DefaultRingSize).
	RingSize int
	// Logger, when set, receives one Warn record per slow query.
	Logger *slog.Logger
}

// Stats is a snapshot of a Tracer's counters, for /metrics.
type Stats struct {
	// Started counts armed traces (sampler fired or slow detection on).
	Started uint64
	// Sampled counts traces the 1-in-N sampler selected.
	Sampled uint64
	// Slow counts queries at or over the slow threshold.
	Slow uint64
	// Dropped counts armed traces discarded at Finish (neither slow nor
	// sampled).
	Dropped uint64
	// RingEntries is the number of snapshots currently held.
	RingEntries int
}

// Tracer arms, pools and collects per-query Traces. A nil *Tracer is
// valid and permanently disabled: Start returns nil (an untraced
// query) and Finish is a no-op — so holders need no nil checks of
// their own.
type Tracer struct {
	opts Options
	pool sync.Pool
	ring *ring

	reqs    atomic.Uint64 // all queries, for the 1-in-N sampler
	started atomic.Uint64
	sampled atomic.Uint64
	slow    atomic.Uint64
	dropped atomic.Uint64
}

// New returns a Tracer with the given options.
func New(opts Options) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	t := &Tracer{opts: opts, ring: newRing(opts.RingSize)}
	t.pool.New = func() any { return new(Trace) }
	return t
}

// Start arms a recorder for one query, or returns nil when this query
// is not traced — the nil flows through the whole read path as "do
// nothing". The recorder comes from a pool; Finish returns it.
func (tc *Tracer) Start() *Trace {
	if tc == nil {
		return nil
	}
	slowOn := tc.opts.SlowQuery >= 0
	sampledNow := false
	if tc.opts.SampleEvery > 0 {
		sampledNow = tc.reqs.Add(1)%uint64(tc.opts.SampleEvery) == 0
	}
	if !slowOn && !sampledNow {
		return nil
	}
	tc.started.Add(1)
	if sampledNow {
		tc.sampled.Add(1)
	}
	tr := tc.pool.Get().(*Trace)
	tr.reset("request")
	tr.sampled = sampledNow
	return tr
}

// Finish completes the trace: if the query was slow (or the sampler
// selected it) the trace is materialized onto the ring — and, for slow
// queries, logged — otherwise it is dropped. The recorder returns to
// the pool either way; the caller must not touch tr afterwards.
// Finish reports why the trace was kept ("slow", "sample") or ""
// when it was dropped or tr was nil.
func (tc *Tracer) Finish(tr *Trace) string {
	if tc == nil || tr == nil {
		return ""
	}
	dur := time.Since(tr.start)
	trigger := ""
	switch {
	case tc.opts.SlowQuery >= 0 && dur >= tc.opts.SlowQuery:
		trigger = "slow"
	case tr.sampled:
		trigger = "sample"
	}
	if trigger == "" {
		tc.dropped.Add(1)
		tc.pool.Put(tr)
		return ""
	}
	snap := tr.snapshot(trigger, dur)
	tc.pool.Put(tr)
	tc.ring.push(snap) // assigns snap.ID
	if trigger == "slow" {
		tc.slow.Add(1)
		tc.logSlow(snap)
	}
	return trigger
}

// logSlow emits one structured record per slow query: the query, its
// join keys (trace id, request id) and the per-stage totals, so an
// outlier is attributable from the log alone.
func (tc *Tracer) logSlow(snap *Snapshot) {
	if tc.opts.Logger == nil {
		return
	}
	stages := snap.StageNS()
	tc.opts.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
		slog.Uint64("trace_id", snap.ID),
		slog.String("request_id", snap.RequestID),
		slog.String("lang", snap.Lang),
		slog.String("mode", snap.Mode),
		slog.String("query", snap.Query),
		slog.Duration("duration", time.Duration(snap.DurationNS)),
		slog.Duration("compile", time.Duration(stages["compile"])),
		slog.Duration("plan", time.Duration(stages["plan"])),
		slog.Duration("probe", time.Duration(stages["probe"])),
		slog.Duration("eval", time.Duration(stages["eval"])),
		slog.Duration("merge", time.Duration(stages["merge"])),
	)
}

// Snapshots returns the kept traces, newest first.
func (tc *Tracer) Snapshots() []*Snapshot {
	if tc == nil {
		return nil
	}
	return tc.ring.snapshots()
}

// Stats returns a snapshot of the tracer's counters.
func (tc *Tracer) Stats() Stats {
	if tc == nil {
		return Stats{}
	}
	return Stats{
		Started:     tc.started.Load(),
		Sampled:     tc.sampled.Load(),
		Slow:        tc.slow.Load(),
		Dropped:     tc.dropped.Load(),
		RingEntries: tc.ring.len(),
	}
}
