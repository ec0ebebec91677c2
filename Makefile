# Local targets mirror .github/workflows/ci.yml exactly, so `make ci`
# reproduces what CI runs.

GO ?= go
FUZZTIME ?= 10s
FUZZ_PKGS := ./internal/core ./internal/dlt ./internal/fleet ./internal/rt ./internal/server

.PHONY: build test bench bench-json bench-index bench-contention fmt fmt-check vet race race-repeat fuzz-smoke serve loadtest wire-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency suites under the race detector, five passes each: one
# pass tries only one interleaving of the admission lock.
race-repeat:
	$(GO) test -race -count=5 -run 'Speculative|Phased|Stress|Concurrent|Second' . ./internal/service ./internal/pool ./internal/server

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Mirrors the CI bench job: one sample per root-package benchmark
# (figure regenerations + BenchmarkServiceSubmit*) plus the pool
# shard-scaling benchmarks, as test2json streams. Redirect instead of tee
# so a benchmark failure fails the target (make's /bin/sh has no
# pipefail).
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -json . > BENCH_service.json
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -json ./internal/pool > BENCH_pool.json

# Admission-index scaling gate: BenchmarkSubmit*/nodes={100,1000,10000} and
# BenchmarkAvailViewRetime/nodes={8..10000} into BENCH_index.json, then
# cmd/benchgate fails the target if per-submit or per-retiming ns/op grows
# super-linearly (> MAX_RATIO, default 15x over a 100x fleet),
# if a late-deadline arrival pays for the queue ahead of it, if fresh
# plans allocate per candidate of their node search, or if an overload
# reject the demand bound decides costs a Plan call or a second allocation.
bench-index:
	./scripts/bench_index.sh

# Optimistic-admission contention gate: BenchmarkSubmitContention
# (mix={cold,hot} x mode={spec,serial} x submitter sweep) into
# BENCH_contention.json, then cmd/benchgate -contention reports scaling on
# the low-conflict mix and enforces near-serialized throughput on the
# 100%-conflict mix. Machine-adaptive: the hot-mix gate skips with a note on
# single-proc machines and only reports below 4 procs.
bench-contention:
	./scripts/bench_contention.sh

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

fuzz-smoke:
	@set -eu; for pkg in $(FUZZ_PKGS); do \
		targets=$$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz' || true); \
		for target in $$targets; do \
			echo "=== fuzzing $$pkg/$$target"; \
			$(GO) test $$pkg -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME); \
		done; \
	done

# Boot the wire server: 4 shards × 8 nodes, bounded queues, 100k sim
# units per wall second, pprof on a loopback side port and structured
# request logs. Ctrl-C (or SIGTERM) drains gracefully.
serve:
	$(GO) run ./cmd/dlserve -addr :8080 -n 8 -shards 4 -placement spillover -max-queue 64 -scale 100000 \
		-pprof-addr 127.0.0.1:6060 -log-level info -log-format text

# Closed-loop burst against a running `make serve`, gated like CI.
loadtest:
	$(GO) run ./cmd/dlload -url http://127.0.0.1:8080 -mode closed -workers 64 -n 50000 \
		-sigma 200 -deadline 20000 -max-p99 2000 -fail-on-5xx -require-retry-after -out BENCH_wire.json

# The CI wire-smoke job, runnable locally: boot dlserve, push 50k
# submissions through it, SIGTERM, and assert the drain lost nothing
# (accepts == commits, empty queue) with zero hard 5xx, plus the
# /metrics invariants (submits == accepts + rejects live; accepts ==
# commits and zero dropped events after drain).
wire-smoke:
	./scripts/wire_smoke.sh

# Non-test lines of internal/{rt,service,pool,driver}, the number ROADMAP
# item 1 budgets; CI prints it in build-and-test.
loc:
	./scripts/loc.sh

ci: build fmt-check vet race race-repeat bench fuzz-smoke
