package main

import (
	"math"
	"sort"
)

// metricSpec names one metric of the benchmark contract. BENCHMARK.json
// at the repository root carries the same tables; the self-test fails
// when the two disagree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the gated metrics: every workload reports every one of
// them with tracing off. A bound is max(5%, twice the largest deviation
// from the median seen over ten runs on the 2-core reference box), capped
// at the contract's 25%; README.md has the table. The timing metrics'
// bounds are wide because the box is: two clients, the daemon's two
// fan-out workers and the collector share two virtual cores.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"ingest_docs_s", "1/s", "higher", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"disk_amp", "ratio", "lower", 0.10},
}

// perLayer are the traced replay's metrics (no bound): every workload
// reports every one of them with tracing on.
var perLayer = []metricSpec{
	{"httpapi.serve_us", "us", "lower", 0},
	{"httpapi.self_share", "ratio", "lower", 0},
	{"net.share", "ratio", "lower", 0},
	{"stream.tokenize_mb_s", "MB/s", "higher", 0},
	{"jsontree.build_us", "us", "lower", 0},
	{"jsontree.encode_mb_s", "MB/s", "higher", 0},
	{"engine.compile_hit_us", "us", "lower", 0},
	{"engine.compile_miss_us", "us", "lower", 0},
	{"engine.parse_us", "us", "lower", 0},
	{"engine.qir_compile_us", "us", "lower", 0},
	{"engine.semantic_us", "us", "lower", 0},
	{"engine.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"store.plan_us", "us", "lower", 0},
	{"store.probe_us", "us", "lower", 0},
	{"store.eval_us", "us", "lower", 0},
	{"store.merge_us", "us", "lower", 0},
	{"store.candidates_per_result", "ratio", "lower", 0},
	{"store.intersection_steps", "count", "lower", 0},
	{"store.segment_doc_share", "ratio", "higher", 0},
	{"store.get_cold_us", "us", "lower", 0},
	{"store.get_warm_us", "us", "lower", 0},
	{"qir.eval_us_per_doc", "us", "lower", 0},
	{"qir.docs_s", "1/s", "higher", 0},
	{"qir.self_share", "ratio", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.bulk_docs_s", "1/s", "higher", 0},
	{"store.snapshot_s", "s", "lower", 0},
	{"store.snapshot_bytes", "B", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"store.wal_syncs", "count", "lower", 0},
	{"store.compactions", "count", "lower", 0},
	{"trace_overhead_share", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run of one workload produced: the contract
// result plus the informational fields (demoted metrics, exact counts,
// sample counts, failed request ids) that carry no bound.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Result   result             `json:"result"`
	Info     map[string]float64 `json:"info,omitempty"`
	Counts   map[string]int64   `json:"counts,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// fill builds the metric map for specs from values, which must hold
// every named metric.
func fill(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic("jsonbench: metric " + s.Name + " was not measured")
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. Empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
