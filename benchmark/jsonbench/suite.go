package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
)

// record is what -json writes: the conditions of the measurement and
// every report of every set.
type record struct {
	Commit  string      `json:"commit"`
	Go      string      `json:"go"`
	NProc   int         `json:"nproc"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Sets    [][]*report `json:"sets"`
}

// suite runs all four workloads, `sets` times over. With more than one
// set it prints, per metric and workload, the median and the largest
// relative deviation from it, and fails when the sets are further apart
// than the metric's bound.
func suite(ctx context.Context, e *env, seed int64, seconds float64, traced bool, sets int, commit, jsonOut string) int {
	rec := record{Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: seed, Seconds: seconds}
	code := 0
	for s := 0; s < sets; s++ {
		var set []*report
		for _, name := range workloadNames {
			for _, tr := range []bool{false, true}[:1+b2i(traced)] {
				rep, err := runOne(ctx, e, name, seed, seconds, tr)
				if err != nil {
					fmt.Fprintln(os.Stderr, "jsonbench:", err)
					return 1
				}
				if sets > 1 {
					fmt.Printf("set %d of %d\n", s+1, sets)
				}
				rep.print()
				if !rep.Result.Correct {
					code = 1
				}
				set = append(set, rep)
			}
		}
		rec.Sets = append(rec.Sets, set)
	}
	if sets > 1 && !compareSets(rec.Sets) {
		code = 1
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "jsonbench:", err)
			return 1
		}
	}
	return code
}

// exactCounts are the traced replay's counts that two runs of the same
// code at the same seed must agree on. (wal_records_replayed and spans
// depend on where the compaction tick fell and are printed only.)
var exactCounts = []string{"replay_requests", "docs_examined", "results_returned", "wal_appends",
	"plan_cache_misses", "distinct_texts", "segments_mapped"}

// compareSets prints the repeatability table and reports whether every
// gated metric stayed within its bound and every exact count repeated.
func compareSets(sets [][]*report) bool {
	ok := true
	fmt.Printf("\n%-12s %-30s %14s %10s %8s\n", "workload", "metric", "median", "max dev", "bound")
	for i, first := range sets[0] {
		specs := endToEnd
		if first.Traced {
			specs = perLayer
		}
		for _, spec := range specs {
			vals := make([]float64, len(sets))
			for s := range sets {
				vals[s] = sets[s][i].Result.Metrics[spec.Name].Value
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			med := median(vals)
			dev := math.Max(hi-med, med-lo) / math.Abs(med)
			verdict := ""
			if spec.Bound > 0 && (hi-lo)/math.Abs(med) > spec.Bound {
				verdict, ok = "  OVER BOUND", false
			}
			fmt.Printf("%-12s %-30s %14.4f %9.1f%% %7.0f%%%s\n", first.Workload, spec.Name, med, 100*dev, 100*spec.Bound, verdict)
		}
		if !first.Traced {
			continue
		}
		// The traced replay is count-bound, so its exact counts repeat.
		for _, k := range exactCounts {
			for s := range sets {
				if got := sets[s][i].Counts[k]; got != first.Counts[k] {
					fmt.Printf("%-12s %-30s differs between sets: %d and %d\n", first.Workload, k, first.Counts[k], got)
					ok = false
				}
			}
		}
	}
	return ok
}
