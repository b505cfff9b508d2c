GO ?= go
GCL_FILES := $(wildcard cmd/dctl/testdata/*.gcl)
# The internal/lint fixtures that must lint clean (exit 0): everything except
# the three whose *processing* is expected to fail (overflow, parseerror,
# resolve exit 1 by design; their .golden files pin the findings).
LINT_CLEAN := $(filter-out \
	internal/lint/testdata/overflow.gcl \
	internal/lint/testdata/parseerror.gcl \
	internal/lint/testdata/resolve.gcl, \
	$(wildcard internal/lint/testdata/*.gcl))

.PHONY: check build fmt vet dcvet test race serve-test watch-test lint prove flow fuzz bench bench-verify bench-diff bench-kernel bench-prove bench-spill bench-slice bench-incr profile clean

# The full local gate: everything CI would run.
check: build fmt vet dcvet test race serve-test watch-test lint prove flow fuzz

build:
	$(GO) build ./...

# Formatting gate: fails listing the offending files; fix with gofmt -w.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The dcserved proof-of-correctness suites under the race detector: the
# synthetic client swarm (dedup + ground-truth verdicts under load), the
# tenant-quota hammer, the drain/admission end-to-end tests, and the
# dctl-verdict/dcserved byte-parity difftest. `race` already covers these
# packages once; this target reruns them shuffled at count=2 so the swarm
# schedules differ between runs.
serve-test:
	$(GO) test -race -shuffle=on -count=2 ./internal/serve/... ./cmd/dcserved ./cmd/dctl

# The incremental re-verification suites under the race detector: the
# edit-scoped graph-repair difftest (every example system, every scripted
# edit, byte-identical to a from-scratch build, also under an unfair mask),
# the predicate-set carry-over of a migration, the on-demand in-edge CSR
# built under contention, the revision hammer (program edited mid-swarm,
# every served verdict checked against ground truth), and the dctl watch
# edit loop.
watch-test:
	$(GO) test -race -run 'TestRepair|TestMigrate|TestInEdges|TestRevise|TestWatch|TestPoll|TestAffectedBySoundness|TestPlanRepair' \
		./internal/explore/... ./internal/flow ./internal/serve ./internal/watch ./cmd/dctl

# The repo's own analyzer suite (internal/analyzers) over the whole module:
# kernel zero-alloc contract, cache-key completeness, CSR write-once rules,
# exit-code/DC-code doc agreement, .gitignore shadowing.
dcvet:
	$(GO) run ./cmd/dcvet

# dclint over every shipped GCL program and every internal/lint fixture that
# is expected to pass; fails on error-severity findings.
lint:
	$(GO) run ./cmd/dctl lint $(GCL_FILES) $(LINT_CLEAN)

# dcprove over the shipped examples: the paper's closure, safeness, and
# convergence claims must all discharge without exploration (exit 0).
prove:
	$(GO) run ./cmd/dctl prove cmd/dctl/testdata/ring3.gcl -invariant Legit -span auto
	$(GO) run ./cmd/dctl prove cmd/dctl/testdata/memaccess.gcl -invariant S -span U1 \
		-z Z1p -x X1 -from U1 -converge X1

# The slicing gate: dctl flow over the shipped examples (the dependence
# analysis and every per-predicate cone must build without error), then the
# slice difftest and the ladder-order difftest under the race detector —
# every declared predicate of every example system checked full-width and
# through the decision ladder with each rung order forced, asserting
# byte-identical verdicts and witnesses.
flow:
	$(GO) run ./cmd/dctl flow cmd/dctl/testdata/ring3.gcl > /dev/null
	$(GO) run ./cmd/dctl flow cmd/dctl/testdata/memaccess.gcl -json > /dev/null
	$(GO) test -race -run 'TestSliceDifftest|TestValidateWrites|TestLadderOrdersAgree' ./internal/flow ./internal/verify

# Short fuzz smoke over the GCL front end ('go test -fuzz' accepts only one
# target per invocation, hence two runs).
fuzz:
	$(GO) test ./internal/gcl -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/gcl -run='^$$' -fuzz=FuzzCompile -fuzztime=10s

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-verify is the repo benchmark's correctness net: the harness tests
# (about 12 s; they build dctl and dcserved) and `-verify`, which re-derives
# every verdict in bench/golden.json through the graph-only path and fails
# on any disagreement. bench/ is a module of its own, so the root
# `go test ./...` never reaches it.
bench-verify:
	cd bench && $(GO) test ./... && $(GO) run . -verify

# bench-diff runs the graph-reuse benchmarks with allocation counting and
# records the results: graph-cache reuse and streaming-scan benchmarks in
# BENCH_reuse.json, and the dcserved swarm throughput/latency record
# (req/s, p50/p99) in BENCH_served.json. Perf changes land with before/after
# evidence (compare
# with `go run golang.org/x/perf/cmd/benchstat` if available, or by eye —
# the files are plain `go test -json` output). The reuse benchmarks include
# the deliberately slow UncachedCheck baseline, so they run at -benchtime=3x.
# The exploration cost rows moved to bench-kernel.
bench-diff:
	$(GO) test -json -run='^$$' -bench='CachedReuse|UncachedCheck|Scan' -benchtime=3x -benchmem . > BENCH_reuse.json
	@grep -o '"Output":"[^"]*"' BENCH_reuse.json | sed -e 's/^"Output":"//' -e 's/"$$//' | tr -d '\n' | sed 's/\\n/\n/g;s/\\t/\t/g' | grep 'ns/op' || true
	$(GO) test -json -run='^$$' -bench='ServedSwarm' ./internal/serve > BENCH_served.json
	@grep -o '"Output":"[^"]*"' BENCH_served.json | sed -e 's/^"Output":"//' -e 's/"$$//' | tr -d '\n' | sed 's/\\n/\n/g;s/\\t/\t/g' | grep 'ns/op' || true

# bench-kernel records what one explored state costs in BENCH_kernel.json:
# one JSON row per operation — ring-7 and Byzantine graph builds, the repair
# of ring 6's graph from true after a one-action guard-narrow edit, deadlock
# hunts on ring 7 with K = 8 and on ring 7 with its faults, SetOf(Legit)
# and a fresh-memo fair-cycle search outside Legit over ring 6 with K = 8,
# and a kernel step sweep of ring 7 — with states, edges, ns/op, allocs/op
# and states/s, each the mean of KERNEL_RUNS runs after one warm-up. CI
# runs the one-run form. Like the other BENCH files, the record survives
# `make clean`.
KERNEL_RUNS ?= 5
bench-kernel:
	$(GO) run ./cmd/dcbench -kernel $(KERNEL_RUNS) > BENCH_kernel.json
	@cat BENCH_kernel.json

# bench-prove records what the exploration-free prover costs in
# BENCH_prove.json: one JSON row per query — ring 3 and 4 convergence from
# true (the rank synthesis behind `check: prove`), ring 5 convergence under
# a 50 ms deadline, the detector and corrector attempts of the decision
# ladder on rings of 3 to 8 machines (each under a 2 s deadline), ring-7
# closure, memaccess safeness and inferred span, and countdown convergence
# — with the verdict, ns/op and allocs/op, each the mean of PROVE_RUNS runs
# from a fresh prover system after one warm-up. CI runs the one-run form.
# Like the other BENCH files, the record survives `make clean`.
PROVE_RUNS ?= 5
bench-prove:
	$(GO) run ./cmd/dcbench -prove $(PROVE_RUNS) > BENCH_prove.json
	@cat BENCH_prove.json

# bench-spill records the spilled scan's evidence in BENCH_spill.json:
# one JSON row per run of the full SPILL_RING-process token-ring state
# space — the unbudgeted in-RAM baseline plus each SPILL_BUDGETS memory
# budget — with states/sec, peak RSS (VmHWM), bytes spilled, and the Bloom
# hit rate. The ring-9 default walks 387 million states and takes minutes;
# CI runs the ring-7 form (SPILL_RING=7 SPILL_BUDGETS=128K,1M), which also
# exercises the sharded visited set in under a second. Like the other
# BENCH files, the record survives `make clean`.
SPILL_RING ?= 9
SPILL_BUDGETS ?= 128M,256M
bench-spill:
	$(GO) run ./cmd/dcbench -spill $(SPILL_RING) -spill-budgets $(SPILL_BUDGETS) > BENCH_spill.json
	@cat BENCH_spill.json

# bench-slice records the cone-of-influence evidence in BENCH_slice.json:
# one JSON row per composed benchmark system (the SLICE_RING-machine watched
# token ring, the paired memory-access systems), each checked once
# full-width and once through the slicing pre-pass, with state counts, both
# wall times, and the speedup. Verdict equality is asserted in-bench; a
# divergence fails the run. Like the other BENCH files, the record survives
# `make clean`.
SLICE_RING ?= 7
bench-slice:
	$(GO) run ./cmd/dcbench -slice $(SLICE_RING) > BENCH_slice.json
	@cat BENCH_slice.json

# bench-incr records the incremental re-verification evidence in
# BENCH_incr.json: one JSON row per scripted edit of the INCR_RING-process
# token ring (watchdog-guard tweak, ring-guard tweak, assignment change,
# action add/remove), each racing the incremental pipeline — revision diff,
# in-place CSR graph repair, verdict preservation — against a from-scratch
# rebuild. Verdict equality is asserted in-bench; a divergence fails the
# run. Like the other BENCH files, the record survives `make clean`.
INCR_RING ?= 7
bench-incr:
	$(GO) run ./cmd/dcbench -incr $(INCR_RING) > BENCH_incr.json
	@cat BENCH_incr.json

# profile regenerates the heaviest experiment with pprof instrumentation and
# drops cpu.pprof/mem.pprof in the working tree for `go tool pprof`.
profile:
	$(GO) run ./cmd/dcbench -cpuprofile cpu.pprof -memprofile mem.pprof E4 E9 > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# BENCH_*.json are recorded evidence, not build products; clean leaves them.
clean:
	rm -f dctl dcbench dcvet cpu.pprof mem.pprof
