GO ?= go

.PHONY: build test verify bench bench-smoke race trace-smoke obs-smoke bench-json bench-prefilter bench-lsh bench-load loadgen-smoke slo-smoke lint lint-fast lint-report

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# verify is the CI gate for the concurrent join paths: vet everything,
# run the in-repo static-analysis suite (cmd/lintcheck: package-DAG,
# map-iteration determinism, wall-clock hygiene, nil-receiver guards,
# mutex hygiene, plus the CFG-based resource-leak, dropped-error and
# lock-order analyzers — fails on any finding or unexplained
# lint:ignore), then race-check the packages with goroutines (the
# analysis engine's CFG/dataflow tests included, and the join executors
# at several workers: HHNL and LSH fanning out scoring, VVM its
# owner-sharded accumulation), the accumulator layer they share, the
# entry cache HVNL drives, the telemetry collector they all report to, the request tracer and flight recorder
# that follow each request, the SLO engine computing error budgets over
# them, and the observability server that scrapes it during in-flight
# joins. The core run includes the differential harness (telemetry
# on/off invariance, concurrent snapshots). It finishes with the
# observability smokes: the self-driving textjoind endpoint check, the
# CLI telemetry snapshot check, the load-generator gate, the
# SLO/error-budget gate, and the baseline-checked benchmark grids.
verify: obs-smoke trace-smoke loadgen-smoke slo-smoke bench-json bench-prefilter bench-lsh
	$(GO) vet ./...
	$(GO) run ./cmd/lintcheck
	$(GO) test -race ./internal/core/... ./internal/accum/... ./internal/entrycache/... ./internal/telemetry/... ./internal/metrics/... ./internal/reqtrace/... ./internal/slo/... ./internal/analysis/... ./cmd/textjoind/...

# lint runs the repo's own static-analysis suite over the whole module:
# nine analyzers driven by the checked-in policy table in
# internal/analysis/policy.go (see DESIGN.md §11 and §16). Exit 1 on
# findings.
lint:
	$(GO) run ./cmd/lintcheck

# lint-fast runs only the syntactic analyzers (no type checking) — the
# edit-loop variant: a few hundred milliseconds instead of a full
# type-checked pass.
lint-fast:
	$(GO) run ./cmd/lintcheck -fast

# lint-report prints the review-friendly view: every rule with its doc
# line and finding count, the suppression tally, then each finding.
lint-report:
	$(GO) run ./cmd/lintcheck -report || true

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-smoke runs every benchmark exactly once — a fast compile-and-run
# check that the bench suite itself still works. BenchmarkTelemetryOverhead
# fails this target if the disabled telemetry path ever allocates.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# trace-smoke runs a real join with -telemetry json and validates the
# emitted snapshot against the exporter schema (cmd/tracecheck); its
# phase histograms come from folding the join's request trace. The
# snapshot goes to stderr, results to stdout, so 2>&1 1>/dev/null routes
# only the snapshot into the checker.
trace-smoke:
	$(GO) run ./cmd/textjoin -p1 wsj -p2 wsj -scale 8192 -alg auto -lambda 5 -mem 200 -show 0 -telemetry json 2>&1 1>/dev/null | $(GO) run ./cmd/tracecheck

# obs-smoke boots textjoind on an ephemeral loopback port, drives every
# endpoint (/healthz, /join serial and parallel, /metrics twice so rate
# gauges appear, /debug/requests, /debug/pprof/), validates the
# exposition (per-phase textjoin_phase_ns included) with the strict
# parser and a request trace with the reqtrace schema, checks that the
# retired /traces answers 404, and shuts down cleanly — all in-process,
# no curl needed.
obs-smoke:
	$(GO) run ./cmd/textjoind -smoke

# bench-json runs the benchmark observatory grid (shapes × algorithms ×
# worker counts over the deterministic simulated store), writes the
# machine-readable report to a temporary file (BENCH_JSON) and the
# cost-model calibration audit to CALIBRATION_PR4.md, and fails if any
# cell regressed against the checked-in baseline. Regenerate the
# baseline with: go run ./cmd/benchreport -json BENCH_BASELINE.json
BENCH_JSON ?= $(or $(TMPDIR),/tmp)/textjoin-bench.json
bench-json:
	$(GO) run ./cmd/benchreport -q -json $(BENCH_JSON) -baseline BENCH_BASELINE.json -calibrate -calreport CALIBRATION_PR4.md

# loadgen-smoke is the CI check for the concurrent serving path: boot a
# real textjoind on a loopback port, fire a short open-loop run over the
# mixed request profiles, and fail unless every request completed with
# plausible latency percentiles. The server is killed whether or not the
# check passes.
LOADGEN_PORT ?= 18573
loadgen-smoke:
	$(GO) build -o /tmp/textjoind.loadgen ./cmd/textjoind
	$(GO) build -o /tmp/loadgen.loadgen ./cmd/loadgen
	@/tmp/textjoind.loadgen -addr 127.0.0.1:$(LOADGEN_PORT) -scale 4096 & \
	pid=$$!; \
	/tmp/loadgen.loadgen -addr http://127.0.0.1:$(LOADGEN_PORT) -wait 30s -rate 40 -duration 2s -check; \
	rc=$$?; kill $$pid 2>/dev/null; exit $$rc

# slo-smoke is the CI gate for the SLO layer: boot a real textjoind,
# drive a fixed-rate run, then scrape /metrics (-slo) so the run fails
# unless the textjoin_slo_* families pass the strict exposition parser
# AND both error budgets (availability, latency) end the run with
# budget remaining. -check also enforces the client-vs-server clock
# gates: no reply may claim more server time than the client measured.
SLO_PORT ?= 18574
slo-smoke:
	$(GO) build -o /tmp/textjoind.slo ./cmd/textjoind
	$(GO) build -o /tmp/loadgen.slo ./cmd/loadgen
	@/tmp/textjoind.slo -addr 127.0.0.1:$(SLO_PORT) -scale 4096 & \
	pid=$$!; \
	/tmp/loadgen.slo -addr http://127.0.0.1:$(SLO_PORT) -wait 30s -rate 40 -duration 3s -slo -check; \
	rc=$$?; kill $$pid 2>/dev/null; exit $$rc

# bench-load reproduces the checked-in BENCH_PR7.json: the identical
# open-loop arrival process against a serialized server and a concurrent
# one, both modeling 3ms of device latency per page read. The serialized
# baseline saturates and sheds load (503s, by design); the concurrent
# server absorbs the full rate at a far lower p99. Numbers are
# machine-dependent — regenerate rather than diff-check.
bench-load:
	$(GO) build -o /tmp/textjoind.loadgen ./cmd/textjoind
	$(GO) build -o /tmp/loadgen.loadgen ./cmd/loadgen
	@/tmp/textjoind.loadgen -addr 127.0.0.1:18575 -scale 4096 -io-delay 3ms -serialize & \
	pid1=$$!; \
	/tmp/textjoind.loadgen -addr 127.0.0.1:18576 -scale 4096 -io-delay 3ms & \
	pid2=$$!; \
	/tmp/loadgen.loadgen -target serialized=http://127.0.0.1:18575 -target concurrent=http://127.0.0.1:18576 \
		-wait 30s -rate 600 -duration 10s -json BENCH_PR7.json; \
	rc=$$?; kill $$pid1 $$pid2 2>/dev/null; exit $$rc

# bench-prefilter runs the signature-prefilter grid: clustered shapes,
# each cell with the filter off and on. The run itself fails if any
# on-cell's result hash differs from its off-cell (signatures may only
# skip, never admit), and the baseline gate fails if the measured I/O
# or skip counters drift from the checked-in BENCH_PR6.json. Regenerate
# the baseline with: go run ./cmd/benchreport -prefilter -json BENCH_PR6.json
bench-prefilter:
	$(GO) run ./cmd/benchreport -prefilter -q -baseline BENCH_PR6.json

# bench-lsh runs the LSH recall-vs-speed grid: clustered shapes, exact
# ground-truth cells plus every banding shape, with recall measured
# against the exact result pairs (not estimated). The run itself fails
# unless some cell reaches recall ≥ 0.9 at no more than half the best
# exact join's page reads, and the baseline gate fails if the frontier
# drifts from the checked-in BENCH_PR8.json. Regenerate the baseline
# with: go run ./cmd/benchreport -lsh -json BENCH_PR8.json
bench-lsh:
	$(GO) run ./cmd/benchreport -lsh -q -baseline BENCH_PR8.json
