# Local targets mirror the jobs of .github/workflows/ci.yml: `make ci` runs
# the build-and-test job (less its printed `make loc` count) and the
# fuzz-smoke job; `make bench-gate` is the bench job and `make wire-smoke`
# the wire-smoke job.

GO ?= go
FUZZTIME ?= 10s
FUZZ_PKGS := ./internal/core ./internal/dlt ./internal/fleet ./internal/rt ./internal/server

.PHONY: build test bench bench-gate fmt fmt-check vet race race-repeat fuzz-smoke serve loadtest wire-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency suites under the race detector, five passes each: one
# pass tries only one interleaving of the admission lock.
race-repeat:
	$(GO) test -race -count=5 -run 'Speculative|Phased|Stress|Concurrent|Second' . ./internal/rt ./internal/service ./internal/pool ./internal/server

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The one benchmark gate, CI's bench job. The contracts measured as a ratio
# of two timings run in-process as the benchgate-tagged TestGate* tests:
# per-submit cost flat in the fleet, speculation near serialized throughput
# on 4+ procs. Each prints every ratio. The contracts that are counts
# (TestQueuedCounts) are ordinary tests. -p 1 keeps the two packages'
# timings from sharing the CPUs; -count=1 because a cached pass measures
# nothing.
bench-gate:
	$(GO) test -tags benchgate -p 1 -count=1 -v -run '^TestGate' -benchtime 300ms . ./internal/rt

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# The second pass vets the benchgate-tagged gate tests, which the plain
# build never compiles.
vet:
	$(GO) vet ./...
	$(GO) vet -tags benchgate ./...

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
