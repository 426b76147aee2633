package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// toy is the self-test's size: a thousand documents, 200 requests a
// workload, 100 replayed.
var toy = size{docs: 1000, tenants: 10, seqLen: 200, poolLen: 32, replay: 100}

func TestContractTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from metrics.go:\n%v\n%v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from metrics.go:\n%v\n%v", contract.PerLayer, perLayer)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(contract.Workloads), len(workloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d in BENCHMARK.json is %q / %q", i, w.Name, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's naming rules", m)
		}
		seen[m.Name] = true
		if m.Bound > 0.25 {
			t.Errorf("metric %s has bound %v > 0.25", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if contract.RunSeconds < 1 || contract.RunSeconds > 60 || !reflect.DeepEqual(contract.Paths, []string{"benchmark"}) {
		t.Errorf("run_seconds %d, paths %v", contract.RunSeconds, contract.Paths)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		hash := func(seed int64) string {
			w, err := newWorkload(name, seed, toy)
			if err != nil {
				t.Fatal(err)
			}
			return w.hash()
		}
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave two input hashes, %s and %s", name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// spanNames are the layer calls the traced replay must record, with the
// workloads each is recorded on (nil: all).
var spanNames = map[string][]string{
	"httpapi.serve": nil, "stream.tokenize": nil, "jsontree.build": nil, "jsontree.encode": nil,
	"engine.compile_miss": nil, "engine.compile_hit": nil, "engine.parse": nil, "engine.qir_compile": nil, "engine.semantic": nil,
	"store.plan": nil, "qir.eval": nil, "store.merge": nil, "store.get_cold": nil, "store.get_warm": nil,
	"store.put": nil, "store.bulk": nil, "store.snapshot": nil, "store.open": nil,
	"store.probe":    {"query-warm", "query-cold", "write-mixed"}, // a scan probes no posting list
	"engine.compile": nil,
}

// TestToySuite drives the real binary at toy size: every workload must
// emit every metric of its table with its unit and answer every request
// correctly, and the traced replay must record a span for every layer.
func TestToySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs jsonstored")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	e.out = t.TempDir()
	opts := runOpts{seconds: 20, maxRequests: 100, setups: 1}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				w, err := newWorkload(name, 1, toy)
				if err != nil {
					t.Fatal(err)
				}
				r := &runner{ctx: context.Background(), env: e, w: w}
				specs, run := endToEnd, r.run
				if traced {
					specs, run = perLayer, r.runTraced
				}
				rep, err := run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 200 {
					t.Errorf("traced=%v: %d of %d failed: %v", traced, rep.Result.Failed, rep.Result.Attempted, rep.Failures)
				}
				if len(rep.Result.Metrics) != len(specs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(rep.Result.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := rep.Result.Metrics[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("traced=%v: metric %s: %+v", traced, s.Name, m)
					} else if s.Bound > 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, m.Value)
					}
				}
			}
			got := map[string]bool{}
			f, err := os.Open(filepath.Join(e.out, name+".spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for sc := bufio.NewScanner(f); sc.Scan(); {
				var sp span
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
					t.Fatal(err)
				}
				if sp.EndNS < sp.StartNS || sp.Request == "" {
					t.Fatalf("bad span %+v", sp)
				}
				got[sp.Name] = true
			}
			for span, on := range spanNames {
				if !got[span] && (on == nil || slices.Contains(on, name)) {
					t.Errorf("no %s span recorded", span)
				}
			}
		})
	}
}

// TestWrongExpectationFails checks that the oracle is live: one wrong
// expected count must make the run incorrect.
func TestWrongExpectationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs jsonstored")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	w, err := newWorkload("query-warm", 1, toy)
	if err != nil {
		t.Fatal(err)
	}
	q := w.warm[0].q
	q.want, q.nodes = q.want[:len(q.want)-1], q.nodes[:len(q.nodes)-1]
	rep, err := (&runner{ctx: context.Background(), env: e, w: w}).run(runOpts{seconds: 20, maxRequests: 50, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Correct || rep.Result.Failed == 0 || rep.Info["error_rate"] <= 0 {
		t.Errorf("a wrong expected count went unnoticed: %+v", rep.Result)
	}
}
