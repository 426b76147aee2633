// Command jsonbench is the repository's benchmark: it builds
// ./cmd/jsonstored, runs it on a loopback port with a temporary data
// directory, drives four workloads over real HTTP from two closed-loop
// clients, checks every answer against what the generator knows, and
// prints every metric by name and unit. A separate traced replay opens
// the data directory the daemon left and times each layer's public
// functions in-process. See ../README.md.
//
// The contract form (one workload, the result as the last line):
//
//	jsonbench --workload query-warm --seed 1 --seconds 10 --trace 0
//
// The suite form (all four workloads, optionally their traced replays,
// optionally several sets compared against the bounds):
//
//	jsonbench [-seed 1] [-seconds 10] [-traced] [-sets K] [-json out.json] [-commit REV]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (query-warm, query-cold, scan-eval, write-mixed); empty: all four")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same corpus and request sequences")
	seconds := flag.Float64("seconds", 10, "length of one measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics over HTTP, tracing off; 1: per-layer metrics from the traced in-process replay")
	traced := flag.Bool("traced", false, "suite form: run the traced replay after each workload's end-to-end run")
	sets := flag.Int("sets", 1, "suite form: run the whole suite this many times and compare the sets against the bounds")
	jsonOut := flag.String("json", "", "suite form: write every report to this file")
	commit := flag.String("commit", "", "suite form: the commit measured, recorded in the -json file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// A signal ends the run through the normal error path, so the
	// daemon is stopped and waited for before jsonbench exits.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonbench:", err)
		os.Exit(1)
	}
	code := 0
	if *workloadName != "" {
		code = single(ctx, e, *workloadName, *seed, *seconds, *trace == 1)
	} else {
		code = suite(ctx, e, *seed, *seconds, *traced, *sets, *commit, *jsonOut)
	}
	e.close()
	os.Exit(code)
}

// runOne measures one workload at its committed size.
func runOne(ctx context.Context, e *env, name string, seed int64, seconds float64, traced bool) (*report, error) {
	w, err := newWorkload(name, seed, committedSize(name))
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, env: e, w: w}
	var rep *report
	if traced {
		rep, err = r.runTraced(runOpts{seconds: seconds})
	} else {
		rep, err = r.run(runOpts{seconds: seconds, setups: 5})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.Seed, rep.Traced = seed, traced
	return rep, nil
}

// single is the contract form: human-readable lines, then the result
// object alone on the last line.
func single(ctx context.Context, e *env, name string, seed int64, seconds float64, traced bool) int {
	rep, err := runOne(ctx, e, name, seed, seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonbench:", err)
		return 1
	}
	rep.print()
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// print lists every metric by name with its unit, then the
// informational fields, the exact counts and the failed requests.
func (rep *report) print() {
	specs := endToEnd
	if rep.Traced {
		specs = perLayer
	}
	for _, s := range specs {
		m := rep.Result.Metrics[s.Name]
		fmt.Printf("%-12s %-30s %14.4f %s\n", rep.Workload, s.Name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(rep.Info) {
		fmt.Printf("%-12s %-30s %14.4f (informational)\n", rep.Workload, k, rep.Info[k])
	}
	for _, k := range sortedKeys(rep.Counts) {
		fmt.Printf("%-12s %-30s %14d count\n", rep.Workload, k, rep.Counts[k])
	}
	for i, f := range rep.Failures {
		if i == 20 {
			fmt.Printf("%-12s ... %d more failed requests\n", rep.Workload, len(rep.Failures)-i)
			break
		}
		fmt.Printf("%-12s FAILED %s\n", rep.Workload, f)
	}
	if !rep.Result.Correct {
		fmt.Printf("%-12s INVALID: %d of %d requests failed or answered wrongly; the numbers above are not a measurement\n",
			rep.Workload, rep.Result.Failed, rep.Result.Attempted)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
