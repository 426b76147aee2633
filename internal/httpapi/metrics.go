package httpapi

import (
	"net/http"

	"jsonlogic/internal/metrics"
)

// promPrefix namespaces every exposed family, per Prometheus naming
// convention (<namespace>_<subsystem>_<name>_<unit>).
const promPrefix = "jsonstored_"

// metrics serves GET /metrics: the same counters /stats reports as
// JSON, rendered in Prometheus text exposition format for scrapers —
// store size gauges, query/planner counters, the candidates and
// fan-out histograms with cumulative buckets, durability/recovery
// stats, plan-cache counters, and the middleware's per-endpoint
// request/latency families. Scraping reads the same atomics the
// query path writes; it never takes a store-wide lock beyond the
// per-shard read locks Stats takes.
func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	var e metrics.Exposition
	st := s.store.Stats()

	e.Gauge(promPrefix+"docs", "Documents stored, across shards.", float64(st.Docs))
	e.Gauge(promPrefix+"shards", "Shard count.", float64(len(st.Shards)))
	e.Gauge(promPrefix+"index_terms", "Distinct index terms across shards.", float64(st.Terms))
	e.Gauge(promPrefix+"index_postings", "Index posting-list entries across shards.", float64(st.Entries))

	q := st.Queries
	queries := promPrefix + "queries_total"
	queriesHelp := "Queries evaluated, by mode and access path."
	e.Counter(queries, queriesHelp, q.FindIndexed,
		metrics.Label{Name: "mode", Value: "find"}, metrics.Label{Name: "access", Value: "index"})
	e.Counter(queries, queriesHelp, q.FindScan,
		metrics.Label{Name: "mode", Value: "find"}, metrics.Label{Name: "access", Value: "scan"})
	e.Counter(queries, queriesHelp, q.SelectIndexed,
		metrics.Label{Name: "mode", Value: "select"}, metrics.Label{Name: "access", Value: "index"})
	e.Counter(queries, queriesHelp, q.SelectScan,
		metrics.Label{Name: "mode", Value: "select"}, metrics.Label{Name: "access", Value: "scan"})
	e.Counter(promPrefix+"candidate_docs_total", "Documents evaluated on indexed queries.", q.CandidateDocs)
	e.Counter(promPrefix+"scanned_docs_total", "Documents evaluated on scans.", q.ScannedDocs)
	e.Counter(promPrefix+"planner_scan_total", "Index-supported queries the cost-based planner sent to a scan.", q.PlannerScan)
	e.Counter(promPrefix+"planner_terms_skipped_total", "Near-useless index terms the planner dropped from intersections.", q.TermsSkipped)
	e.Counter(promPrefix+"semantic_short_circuits_total", "Queries answered empty from a compile-time emptiness proof, without probing or evaluating any document.", q.SemanticShortCircuits)
	e.Counter(promPrefix+"planner_terms_pruned_total", "Index terms skipped as schema-universal (held by every conforming document).", q.TermsPruned)
	e.Counter(promPrefix+"schema_rejects_total", "Writes rejected for not conforming to the enforced schema.", q.SchemaRejects)
	e.Counter(promPrefix+"queries_parallel_total", "Queries whose shard fan-out used more than one worker.", q.ParallelQueries)
	e.Counter(promPrefix+"queries_serial_total", "Queries evaluated on a single worker.", q.SerialQueries)
	e.Counter(promPrefix+"intersection_steps_total", "Posting-list merge steps (comparisons and gallop probes) on indexed queries.", q.IntersectionSteps)
	e.Counter(promPrefix+"cancellations_total", "Queries aborted by context cancellation or deadline expiry.", q.Cancellations)

	// Admission control: load shed before any work happened, by cause.
	sheds := promPrefix + "sheds_total"
	shedsHelp := "Requests shed by admission control, by reason."
	shed := func(reason string, v uint64) {
		e.Counter(sheds, shedsHelp, v, metrics.Label{Name: "reason", Value: reason})
	}
	var gateSheds, gateWaits uint64
	if s.qgate != nil {
		gateSheds, gateWaits = s.qgate.sheds.Load(), s.qgate.waits.Load()
	}
	shed("query_gate", gateSheds)
	var bulkSheds uint64
	if s.bulkBytes != nil {
		bulkSheds = s.bulkBytes.sheds.Load()
	}
	shed("bulk_bytes", bulkSheds)
	shed("draining", s.drainSheds.Load())
	e.Counter(promPrefix+"gate_waits_total", "Queries that queued for an execution slot before running.", gateWaits)

	find, sel, fan := s.store.MetricsHistograms()
	candidates := promPrefix + "query_candidates"
	candidatesHelp := "Candidate-set size per indexed query, by mode."
	e.Histogram(candidates, candidatesHelp, find, 1, metrics.Label{Name: "mode", Value: "find"})
	e.Histogram(candidates, candidatesHelp, sel, 1, metrics.Label{Name: "mode", Value: "select"})
	e.Histogram(promPrefix+"query_fanout_workers", "Workers used per query's shard fan-out.", fan, 1)

	cs := s.eng.CacheStats()
	e.Counter(promPrefix+"plan_cache_hits_total", "Plan-cache hits.", cs.Hits)
	e.Counter(promPrefix+"plan_cache_misses_total", "Plan-cache misses (compiles).", cs.Misses)
	e.Counter(promPrefix+"plan_cache_evictions_total", "Plans evicted from the LRU cache.", cs.Evictions)
	e.Gauge(promPrefix+"plan_cache_entries", "Plans currently cached.", float64(cs.Entries))
	e.Gauge(promPrefix+"plan_cache_capacity", "Plan-cache capacity.", float64(cs.Capacity))

	// The semantic pass (satisfiability, containment dedup, schema
	// pruning) runs on plan-cache misses only; all zeros when disabled.
	e.Counter(promPrefix+"semantic_checks_total", "Compiles the semantic pass analyzed.", cs.SemanticChecks)
	e.Counter(promPrefix+"semantic_unsat_total", "Compiles proven unsatisfiable (compiled to a constant-empty program).", cs.SemanticUnsat)
	e.Counter(promPrefix+"semantic_unknown_total", "Semantic checks that exhausted their budget undecided.", cs.SemanticUnknown)
	e.Counter(promPrefix+"semantic_aliases_total", "Compiles answered by a containment-equivalent cached plan.", cs.SemanticAliases)
	e.Counter(promPrefix+"semantic_borrowed_facts_total", "Index facts borrowed from strictly-containing cached plans.", cs.SemanticBorrowed)
	e.Counter(promPrefix+"semantic_schema_pruned_facts_total", "Facts the schema proved universal over conforming documents.", cs.SchemaPrunedFacts)

	if d := st.Durability; d != nil {
		e.Counter(promPrefix+"wal_appends_total", "WAL records appended since open, across shards.", d.WALAppends)
		e.Counter(promPrefix+"wal_bytes_total", "WAL bytes framed since open.", d.WALBytes)
		e.Counter(promPrefix+"wal_syncs_total", "WAL fsyncs issued since open.", d.WALSyncs)
		e.Gauge(promPrefix+"wal_segment_records", "Records across active WAL segments: the replay debt a crash now would incur.", float64(d.WALSegmentRecords))
		e.Counter(promPrefix+"snapshot_errors_total", "Failed snapshot attempts since open (successful ones are compactions_total).", d.SnapshotErrors)
		walFailed := uint64(0)
		if d.LastError != "" {
			walFailed = 1
		}
		e.Gauge(promPrefix+"wal_failed", "1 when a sticky WAL error has the store refusing writes.", float64(walFailed))
		degraded := uint64(0)
		if d.Degraded {
			degraded = 1
		}
		e.Gauge(promPrefix+"degraded", "1 while any shard is degraded read-only after a WAL failure.", float64(degraded))
		e.Gauge(promPrefix+"degraded_shards", "Shards currently degraded read-only.", float64(d.DegradedShards))
		e.Counter(promPrefix+"wal_retry_total", "Heal attempts the degraded-shard probe has made.", d.WALRetries)
		e.Counter(promPrefix+"wal_heal_total", "Degraded shards successfully healed (WAL reset + snapshot).", d.WALHeals)
		// The tiered read path: immutable mmap'd segments under the
		// mutable memtable, converted by compaction (segment builds).
		e.Gauge(promPrefix+"segments", "Immutable segment files currently serving reads, across shards.", float64(d.Segments))
		e.Gauge(promPrefix+"segment_bytes", "Bytes of segment files mapped (or heap-resident on the no-mmap fallback).", float64(d.SegmentBytes))
		e.Gauge(promPrefix+"segment_docs", "Live documents served from the segment tier.", float64(d.SegmentDocs))
		e.Gauge(promPrefix+"memtable_docs", "Documents in the mutable memtable tier above the segments.", float64(d.MemtableDocs))
		e.Counter(promPrefix+"compactions_total", "Segment builds (memtable + old segment merged to a new segment) since open.", d.Compactions)
		rec := d.Recovery
		e.Gauge(promPrefix+"recovery_segments_mapped", "Shards restored at startup by mapping a segment file.", float64(rec.SegmentsMapped))
		e.Gauge(promPrefix+"recovery_segment_docs", "Documents served from segments mapped at startup.", float64(rec.SegmentDocs))
		e.Gauge(promPrefix+"recovery_invalid_segments", "Torn or corrupt segment files skipped at startup in favor of an older generation.", float64(rec.InvalidSegments))
		e.Gauge(promPrefix+"recovery_wal_records_replayed", "WAL records replayed at startup.", float64(rec.WALRecordsReplayed))
		e.Gauge(promPrefix+"recovery_torn_tails", "Torn WAL tails truncated at startup.", float64(rec.TornTails))
	}

	// Per-query tracing: how many queries crossed the slow threshold,
	// what the sampler armed, and how full the /debug/queries ring is.
	// All zeros when no Tracer is configured.
	ts := s.tracer.Stats()
	e.Counter(promPrefix+"slow_queries_total", "Queries at or over the slow-query threshold (traced, ringed and logged).", ts.Slow)
	e.Counter(promPrefix+"traces_started_total", "Queries that ran with an armed trace recorder.", ts.Started)
	e.Counter(promPrefix+"traces_sampled_total", "Traces armed by the 1-in-N sampler.", ts.Sampled)
	e.Counter(promPrefix+"traces_dropped_total", "Armed traces discarded at completion (neither slow nor sampled).", ts.Dropped)
	e.Gauge(promPrefix+"trace_ring_entries", "Trace snapshots held in the /debug/queries ring.", float64(ts.RingEntries))

	s.runtime.Expose(&e, promPrefix)
	s.http.Expose(&e, promPrefix)

	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = e.WriteTo(w)
}
