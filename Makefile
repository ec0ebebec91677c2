# Local targets mirror the jobs of .github/workflows/ci.yml: `make ci` runs
# the build-and-test job (less its printed `make loc` count) and the
# fuzz-smoke job with its mutants; `make bench-gate` is the bench job and
# `make wire-smoke` the wire-smoke job.

GO ?= go
FUZZTIME ?= 10s
FUZZ_PKGS := ./internal/core ./internal/dlt ./internal/driver ./internal/fleet ./internal/rt ./internal/server

.PHONY: build test bench bench-gate fmt fmt-check vet race race-repeat examples fuzz-smoke mutants serve loadtest wire-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency suites under the race detector, five passes each: one
# pass tries only one interleaving of the admission lock.
race-repeat:
	$(GO) test -race -count=5 -run 'Phased|Stress|Concurrent' . ./internal/rt ./internal/service ./internal/pool ./internal/server

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Run every example and diff what it prints against its committed
# examples/<name>/output.txt: the examples drive the public API end to end
# on fixed inputs, so any change in their output is a change in behaviour.
examples:
	@set -eu; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		echo "=== example $$name"; \
		$(GO) run "./examples/$$name" > "$$out"; \
		diff -u "examples/$$name/output.txt" "$$out"; \
	done

# The one benchmark gate, CI's bench job. The contract measured as a ratio
# of two timings runs in-process as the benchgate-tagged TestGate* test:
# per-submit cost flat in the fleet. It prints every ratio. The contracts
# that are counts (TestQueuedCounts) are ordinary tests. -count=1 because a
# cached pass measures nothing.
bench-gate:
	$(GO) test -tags benchgate -count=1 -v -run '^TestGate' -benchtime 300ms ./internal/rt

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

# Apply each mutant of scripts/mutants.txt to a temporary copy of the tree
# and require the tests it names to fail; survivors are listed.
mutants:
	GO=$(GO) ./scripts/mutants.sh

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

ci: build fmt-check vet race race-repeat bench examples fuzz-smoke mutants
