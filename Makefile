# Convenience targets for the tradeoff reproduction.

GO ?= go

.PHONY: all build vet lint lint-fast test test-short race loadbench-test bench bench-smoke bench-mrc bench-record trace-smoke flight-smoke obs-smoke figures figures-fast report examples serve loc clean

all: build lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Full static analysis: go vet + gofmt (the vet target) plus the
# repo's own eight-analyzer tradeoffvet suite (lint-fast: parameter
# domains, float discipline, context propagation, error handling,
# span lifecycle, locking discipline, deterministic output order,
# hot-path allocation budgets).
lint: vet lint-fast

# Just the tradeoffvet suite — skips go vet and gofmt for a fast
# inner-loop check while iterating on analyzer findings.
lint-fast:
	$(GO) run ./cmd/tradeoffvet ./...

# -shuffle=on randomizes test (and subtest) execution order so hidden
# inter-test coupling — shared caches, package-level state — surfaces
# in CI instead of in production; the failure log prints the seed.
test:
	$(GO) test -shuffle=on ./...

test-short:
	$(GO) test -short -shuffle=on ./...

# Race-detector pass over every package (the concurrent subsystems —
# sweep pool + service — are where it bites, but regressions can creep
# in anywhere).
race:
	$(GO) test -race ./...

# Vet and test the loadbench module. It has its own go.mod, so the
# root `go build ./...` never compiles it, yet it imports sweep, simjob
# and service; its smoke test checks every workload's answers against
# loadbench/testdata/digests.json.
loadbench-test:
	cd loadbench && $(GO) vet ./... && $(GO) test ./...

# Run the HTTP evaluation service on :8080.
serve:
	$(GO) run ./cmd/tradeoffd

# Every benchmark: the ladder and one run per paper artifact, all in
# the root bench_test.go.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Run every row of the benchmark ladder (bench_test.go) once. One
# iteration measures nothing; it checks that every row still builds,
# runs and passes its own result checks, so CI blocks on it.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkLadder$$' -benchtime 1x .

# Race the 64-point sweep grid under simulation ("sim:ear": one
# generated trace, one exact pass per line size simulating all eight
# cache sizes at once) against the miss-ratio-curve sources ("mrc:ear"
# and "mrc~:ear", one profiling pass per line size); every source pays
# four passes here, so the rows compare the kernels.
bench-mrc:
	$(GO) test -run '^$$' -bench 'BenchmarkLadder/sweep_(sim|mrc)' -benchmem .

# Re-measure every ladder row (the median of five interleaved passes
# over the whole ladder, with their spread) and rewrite the committed
# baseline; CI diffs against it with `benchjson -compare`
# (non-blocking).
bench-record:
	$(GO) run ./cmd/benchjson -o BENCH_sweep.json

# Smoke-run the span exporter: sweep the example design space with
# -trace and validate the resulting Chrome trace_event JSON with
# cmd/tracecheck (well-formed array, one span per evaluated (cache
# size, line size) geometry; the example grid's 30 designs share 15).
# The span count is deterministic, so CI blocks on this.
trace-smoke:
	mkdir -p out
	$(GO) run ./cmd/sweep -example > out/trace-smoke-space.json
	$(GO) run ./cmd/sweep -config out/trace-smoke-space.json -o out/trace-smoke.csv -trace out/trace-smoke.json
	$(GO) run ./cmd/tracecheck -min 15 out/trace-smoke.json

# Boot tradeoffd, drive traffic, dump the always-on flight recorder
# and validate the B/E trace_event JSON with cmd/tracecheck.
flight-smoke:
	sh scripts/obs_smoke.sh flight

# The full observability smoke: flight-smoke plus /metrics/history,
# /debug/slow, /debug/dash and the tradeoffd_slo_* gauges, all against
# a live server. CI blocks on it.
obs-smoke:
	sh scripts/obs_smoke.sh

# Regenerate every paper artifact into out/ (full scale; minutes).
figures:
	$(GO) run ./cmd/figures -print=false -out out

# Same, at test scale (seconds).
figures-fast:
	$(GO) run ./cmd/figures -fast -print=false -out out

# One markdown report of every artifact.
report:
	$(GO) run ./cmd/report -o REPORT.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/buswidth
	$(GO) run ./examples/pipelined
	$(GO) run ./examples/linesize
	$(GO) run ./examples/stallfeatures
	$(GO) run ./examples/designspace
	$(GO) run ./examples/hierarchy

# Non-test and test Go line counts over the tracked .go files outside
# loadbench/ (its own module), testdata/ included: the one scope the
# ROADMAP's line counts use.
loc:
	@printf 'non-test %s\ntest     %s\n' \
		"$$(git ls-files -- '*.go' ':!:*_test.go' ':!:loadbench/*' | xargs cat | wc -l)" \
		"$$(git ls-files -- '*_test.go' ':!:loadbench/*' | xargs cat | wc -l)"

# Remove the smoke-run outputs (see .gitignore); the paper artifacts
# committed in out/ stay.
clean:
	rm -f out/tradeoffd out/tracecheck out/obs-smoke-* out/trace-smoke*
