# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

# The committed benchmark snapshot for this PR sequence; bump per PR.
BENCH_JSON ?= BENCH_8.json
# bench-diff compares the previous PR's snapshot against this one.
BENCH_OLD ?= BENCH_7.json
BENCH_NEW ?= $(BENCH_JSON)

.PHONY: all build vet fmt-check test race race-core alloc-check chaos fuzz bench bench-engine bench-store bench-smoke bench-json bench-diff benchmark-check docs-check deps-check loc run-daemon

all: vet fmt-check build test docs-check deps-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean (CI runs the same check).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Just the concurrency-hot tiers (shared plans, pooled executor
# states, sharded store with parallel query fan-out, WAL group
# commit, the trace ring under concurrent writers and the traced
# HTTP read path) plus the theory packages the semantic planner now
# calls at compile time (containment/jauto/schema/datalog) — the
# fast-failing prefix of the full race run. The metamorphic
# containment harness in internal/store rides along here, so its
# ≥1000 pairs per front end run race-clean on every push.
race-core:
	$(GO) test -race ./internal/qir ./internal/engine ./internal/store ./internal/trace ./internal/httpapi ./internal/containment ./internal/jauto ./internal/schema ./internal/datalog

# Allocation-regression gate: the AllocsPerRun tests pinning the
# pooled executor's steady state (plan-cache-hit MatchCtx/EvalAppendCtx
# at zero allocations, with no context and with context.Background() —
# the one the daemon passes), the untraced compile path — including
# cache-hit compiles with the semantic pass enabled — the
# disabled/pooled trace recorder, the store's steady-state segment
# probe, the durable write path (PutTree: index insert plus one WAL
# frame rendered straight from the tree arena), tree construction
# (jsontree.Parse and a reused Builder: four allocations a document;
# engine.BuildTree, PUT's route, pooled or over a kept Builder: six,
# with the read buffer and string),
# a plan-cache miss beside disjoint resident plans (the semantic
# dedup skips their containment proofs), the exact-find text check
# (no allocation) and an exact find on a reopened segment store
# (allocations flat in the hit count). The
# theory packages are included so any future alloc pins there are
# picked up without editing this target.
# -count=1 defeats the test cache so the numbers are measured, not
# replayed.
alloc-check:
	$(GO) test -run 'ZeroAllocs|AllocsBounded' -count=1 ./internal/jsontree ./internal/qir ./internal/engine ./internal/store ./internal/trace ./internal/containment ./internal/jauto ./internal/schema ./internal/datalog

# The robustness suite: fault-injected durability (a FaultFS injects
# ENOSPC/EIO/short writes under the WAL and segment builds; shards must
# degrade read-only, keep serving oracle-correct reads, survive a
# crash without corruption and self-heal once the fault lifts),
# cooperative query cancellation, Close racing in-flight queries and
# segment builds, the write-triggered roll (deterministic cuts, the
# interval fsync never stalled by a build, the roll on reopen), and
# the HTTP half (429 admission sheds, 503 degraded/drain contract,
# 504 timeouts). Under -race — the close/cancel scenarios are
# concurrency tests first. -count=1: faults must be injected, not
# replayed from the test cache.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Cancelled|Deadline|HonoursContext|ContextKinds|CloseRaces|Roll|IntervalSync|QueryGate|QueryTimeout|Drain|Degraded|BulkByteGate' ./internal/store ./internal/httpapi

# Short native-fuzz passes: the engine's plan-cache key path, the
# witness-soundness targets for the semantic planner's decision
# procedures (a SAT witness must satisfy the query through the real
# engine; containment refutations must separate the pair under the
# production evaluator), the segment posting-list codec (round-
# trip fidelity; hostile bytes must error, never panic or over-read),
# the three text-to-tree routes (jsonval.Parse+FromValue,
# jsontree.Parse and engine.BuildTree accept the same documents and
# build the same trees), the §6 streaming tokenizer (accepts exactly
# the store's document language, streams each document as its value's
# events, and rejects a bad literal with jsonval's error and offset),
# JSONPath selection (the
# executor's set-at-a-time enumerators select exactly the nodes of the
# reference JNL evaluator) and the exact-find text check (HoldsJSON
# on a document's bytes answers as Holds on its parsed tree; hostile
# bytes must not panic or over-read).
fuzz:
	$(GO) test ./internal/engine/ -run FuzzPlanCache -fuzz FuzzPlanCache -fuzztime 20s
	$(GO) test ./internal/engine/ -run FuzzParsersAgree -fuzz FuzzParsersAgree -fuzztime 20s
	$(GO) test ./internal/stream/ -run FuzzTokenizerAgrees -fuzz FuzzTokenizerAgrees -fuzztime 20s
	$(GO) test ./internal/engine/ -run FuzzSelectionAgrees -fuzz FuzzSelectionAgrees -fuzztime 20s
	$(GO) test ./internal/jauto/ -run FuzzJNLSat -fuzz FuzzJNLSat -fuzztime 30s
	$(GO) test ./internal/containment/ -run FuzzContainment -fuzz FuzzContainment -fuzztime 30s
	$(GO) test ./internal/store/ -run FuzzPostingsCodec -fuzz FuzzPostingsCodec -fuzztime 20s
	$(GO) test ./internal/jsontree/ -run FuzzFactText -fuzz FuzzFactText -fuzztime 20s

# The full complexity-reproduction benchmark suite (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 2x ./...

# Just the engine layer: plan-cache hit/miss and NDJSON validation.
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngine' ./...

# The storage tier: indexed query vs full scan at 10k/100k documents,
# bulk-ingest throughput (in-memory baseline and per-fsync-policy WAL
# overhead), and startup recovery.
bench-store:
	$(GO) test -run xxx -bench 'BenchmarkStore' ./...

# One iteration of a representative benchmark per tier (evaluator,
# engine — plan-cache misses with the semantic pass included —, store,
# planner, the scan-eval query shapes through the QIR executor, the
# query-cold tenant pass on a reopened segment tier, and both kinds of
# jsonval.Lexer driver: tree parsing over string input and the §6
# streaming validator over byte input) — catches bit-rot, not
# regressions; CI runs this on every push.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkP1EvalDeterministic|BenchmarkStoreFindMongo|BenchmarkStorePlanner|BenchmarkStoreScanEval|BenchmarkStoreColdPass|BenchmarkTreeParse|BenchmarkStreamValidate' -benchtime 1x ./...

# The repo's benchmark (benchmark/, see BENCHMARK.json) is a module of
# its own that builds the system under test from this checkout, so the
# root `go build ./...` never compiles it: an API rename here would
# break it silently. Vet it and run its self-test (~15 s).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Non-test Go lines per package outside benchmark/ — the line-delta
# every simplification PR reports (run it on both commits).
loc:
	@sh scripts/loc.sh

# Documentation checks: required docs exist, relative markdown links
# resolve, examples/ compiles via vet, and jsonstored's flag set,
# usage blocks and README flag table agree.
docs-check:
	sh scripts/docs-check.sh

# Fences around the serving binary: jsonstored's import graph stays
# clear of the research-only packages, and the store and the HTTP
# layer render trees only through the one encoder.
deps-check:
	sh scripts/deps-check.sh

# Run the daemon durably against a throwaway data directory — the
# quickest way to poke the HTTP API (and kill-and-recover: rerun with
# the printed directory to recover it).
run-daemon:
	@dir=$$(mktemp -d /tmp/jsonstored-data.XXXXXX); \
	echo "data dir: $$dir"; \
	$(GO) run ./cmd/jsonstored -addr :8080 -data-dir "$$dir" -fsync interval

# Benchmarks as data: run the suite and record (name, ns/op, B/op,
# allocs/op) in $(BENCH_JSON), committed per PR so the performance
# trajectory is tracked in review diffs. BENCH_TIME trades noise for
# wall-clock: 3x keeps the suite runnable everywhere, but snapshots
# that feed the bench-diff gate should use 10x+ — on a small host a
# single GC pause inside a 3-sample mean reads as a 2× swing on the
# sub-millisecond benchmarks. Shapes, not absolute numbers, are the
# signal either way.
# Staged through a temp file (not a pipe) so a failing benchmark run
# aborts the target instead of silently writing a truncated snapshot;
# the trap removes the temp file on failure too.
BENCH_TIME ?= 3x
bench-json:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run xxx -bench . -benchtime $(BENCH_TIME) -benchmem ./... > "$$tmp"; \
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < "$$tmp"

# Diff two committed benchmark snapshots: per-benchmark ns/op and
# allocs/op deltas, failing on >25% regressions in the hot-path
# allowlist (see cmd/benchjson's defaultHotPath). Numbers only compare
# within one machine — run bench-json for both files on the same host.
bench-diff:
	$(GO) run ./cmd/benchjson -compare $(BENCH_OLD) $(BENCH_NEW)
