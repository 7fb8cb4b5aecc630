# Tier-1 gate (ROADMAP.md): everything must pass before a change lands.
.PHONY: check fmt vet build test chaos bench bench-gate bench-harness digests reproduce reproduce-check trace-demo hunt advhunt fuzz-smoke dash-smoke serve-smoke

check: fmt vet build test

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

# -shuffle=on randomizes test order within each package so hidden
# order dependencies (package-level singletons, registry state) fail
# here instead of in a future refactor.
test:
	go test -race -shuffle=on ./...

# Fault-injection suite twice over: the chaos tests assert that the same
# seed + schedule reproduce the same decisions, so -count=2 shakes out
# hidden wall-clock or global-rand dependencies.
chaos:
	go test -race -run Chaos -count=2 ./...

# Benchmark trajectory: enforce the steady-state allocation bounds (the
# TestAlloc* tests are !race-tagged — the race detector's allocation
# instrumentation would distort them), then run the full benchmark sweep
# and record ns/op, B/op, allocs/op into BENCH_PR9.json's `current`
# section (the pinned `baseline` section is preserved).
bench:
	go test -run 'TestAlloc' -count=1 .
	go run ./cmd/benchjson -out BENCH_PR9.json

# Benchmark regression gate: re-run the sweep and fail if any benchmark
# regressed by more than BENCH_TOL (relative ns/op or allocs/op) against
# the committed numbers. This is a gating CI job. The default tolerance
# is deliberately generous — the end-to-end mission benches jitter ±10%
# run-to-run on a loaded host while real regressions (the kind this PR
# hunted) move 2-4x — so red means regression, not weather. Tighten for
# a quiet box (`make bench-gate BENCH_TOL=0.05`) or loosen for a very
# noisy one (`BENCH_TOL=0.5`). BENCH_REPORT (optional) also writes the
# comparison as JSON for the CI artifact.
BENCH_TOL ?= 0.25
BENCH_REPORT ?=
bench-gate:
	go test -run 'TestAlloc' -count=1 .
	go run ./cmd/benchjson -gate BENCH_PR9.json -tol $(BENCH_TOL) \
		$(if $(BENCH_REPORT),-report $(BENCH_REPORT))

# Benchmark harness compile check. perfbench/ is a module of its own,
# so vet, build and test above never see it: an API change in obs or
# core could break `bash perfbench/run.sh` with every other check green.
bench-harness:
	go -C perfbench vet ./...
	go -C perfbench test ./...

# Reference-digest check: re-record the digest of every perfbench
# mission (nav-observed, explore, explore/serial, serve-batch and
# serve-batch/serial: 40 in all) and compare the file byte for byte with
# the committed perfbench/reference.json. The recorder writes sorted,
# indented JSON, so cmp is exact. A change that claims identical mission
# results must pass this. About 50 s on 2 CPUs.
digests:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	bash perfbench/run.sh --record "$$tmp" && \
	cmp "$$tmp" perfbench/reference.json && \
	echo "digests: every mission matches perfbench/reference.json"

reproduce:
	go run ./cmd/reproduce -exp all

# Paper-output check: rerun every experiment in full mode with -figdir,
# drop the wall-clock lines ("[<id> done in …]" and "[figures written
# …]") from both the run and the committed reproduce_output.txt, require
# the rest to match, then cmp every SVG with the committed figures/.
# A change that claims the same paper numbers and figures must pass
# this. About 50 s on 2 CPUs, build included.
reproduce-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go run ./cmd/reproduce -exp all -figdir "$$tmp/figures" > "$$tmp/run.txt"; \
	grep -v -e '^\[.* done in .*\]$$' -e '^\[figures written ' "$$tmp/run.txt" > "$$tmp/got.txt"; \
	grep -v -e '^\[.* done in .*\]$$' -e '^\[figures written ' reproduce_output.txt > "$$tmp/want.txt"; \
	diff "$$tmp/want.txt" "$$tmp/got.txt"; \
	(cd figures && ls) > "$$tmp/want.ls"; \
	(cd "$$tmp/figures" && ls) > "$$tmp/got.ls"; \
	diff "$$tmp/want.ls" "$$tmp/got.ls"; \
	for f in figures/*; do cmp "$$f" "$$tmp/$$f"; done; \
	echo "reproduce-check: report matches reproduce_output.txt and every SVG matches figures/"

# Scenario-matrix hunt (internal/simtest): generate SEEDS missions
# across worlds × faults × goals × fleets × threads × links, check the
# paper-invariant library on each, and shrink any violation into a JSON
# repro under internal/simtest/testdata/repros/ (replayed by tier-1
# tests from then on). START offsets the seed range for fresh coverage.
SEEDS ?= 200
START ?= 0
hunt:
	go run ./cmd/scenhunt -seeds $(SEEDS) -start $(START) -matrix-every 25 \
		-repros internal/simtest/testdata/repros

# Adversarial fault-schedule search (internal/simtest): hill-climb over
# scripted fault schedules for the one that maximizes mission energy,
# against an equal-budget random baseline. Exits nonzero if the search
# fails to beat random by MIN_GAIN or if the worst case doesn't replay
# bit-identically. ADV_SEED picks the base mission + search stream.
ADV_SEED ?= 1
ADV_EVALS ?= 40
MIN_GAIN ?= 0.10
advhunt:
	go run ./cmd/advhunt -seed $(ADV_SEED) -search-seed $(ADV_SEED) \
		-evals $(ADV_EVALS) -min-gain $(MIN_GAIN) \
		-repros internal/simtest/testdata/repros

# Fuzz smoke over every fuzz target (wire decode, grid parser, beam
# update and exact beam walk, costmap footprint, costmap rebuild against
# its per-offset inflation, tracker plan against its per-step rollout,
# the tracker's path distance against its every-segment Hypot, msg
# header, bag reader against its own writer, POST /missions spec
# decoder, store record decoder against the query oracle): quick enough
# for CI, long enough to catch shallow regressions against the
# committed corpora.
# FuzzStoreRecords writes and opens a store file per input (about a
# millisecond each), so the default 60 s minimization of each input
# that finds new coverage would take its whole 10 s; it is capped.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire
	go test -run '^$$' -fuzz FuzzRoundtrip -fuzztime 10s ./internal/wire
	go test -run '^$$' -fuzz FuzzParseText -fuzztime 10s ./internal/grid
	go test -run '^$$' -fuzz FuzzIntegrateBeamFixed -fuzztime 10s ./internal/grid
	go test -run '^$$' -fuzz FuzzIntegrateBeamExact -fuzztime 10s ./internal/grid
	go test -run '^$$' -fuzz FuzzFootprintCost -fuzztime 10s ./internal/costmap
	go test -run '^$$' -fuzz FuzzRebuildMatchesReference -fuzztime 10s ./internal/costmap
	go test -run '^$$' -fuzz FuzzPlanMatchesReference -fuzztime 10s ./internal/tracker
	go test -run '^$$' -fuzz FuzzDistToPath -fuzztime 10s ./internal/tracker
	go test -run '^$$' -fuzz FuzzHeaderDecode -fuzztime 30s ./internal/msg
	go test -run '^$$' -fuzz FuzzBagReader -fuzztime 10s ./internal/bag
	go test -run '^$$' -fuzz FuzzBuildScenarioMission -fuzztime 10s ./internal/simtest
	go test -run '^$$' -fuzz FuzzStoreRecords -fuzztime 10s -fuzzminimizetime 1s ./internal/store

# Dashboard smoke: short mission with the mission store and HTTP
# inspector attached, probed from outside with curl (/missions, /fleet,
# /dash, the first /live SSE event) and read back with cmd/lgvstore.
dash-smoke:
	sh scripts/dash_smoke.sh

# Control-plane smoke: start `lgvsim -serve`, admit missions over the
# HTTP API with curl, poll them to success, SIGTERM-drain the daemon
# and read the flushed store back with cmd/lgvstore.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end tracing proof: run a short traced mission, then validate the
# exported Chrome JSON (well-formed, monotonic timestamps, every parent
# span present) with `lgvsim -verify`. Artifacts land in /tmp.
trace-demo:
	go run ./cmd/lgvsim -deploy adaptive -map deadzone -maxtime 120 \
		-trace /tmp/lgv-trace.json -spans /tmp/lgv-spans.jsonl
	go run ./cmd/lgvsim -verify /tmp/lgv-trace.json
