#!/bin/sh
# Index-scaling benchmark gate: run the BenchmarkSubmit/nodes=<n>,
# BenchmarkSubmitFastReject/nodes=<n>, BenchmarkAvailViewRetime/nodes=<n>
# and BenchmarkSubmitQueued/queue=<n>/mix=<m> sweeps as a test2json stream
# (BENCH_index.json, uploaded by CI next to BENCH_wire.json), then gate with
# cmd/benchgate the nodes=10000 vs nodes=100 ns/op growth (vs nodes=16 for
# the index alone), for late-deadline arrivals the queue=128 vs
# queue=8 growth, for arrivals into the middle of 128 waiting tasks
# the allocs/op (<= 6: fresh plans are cut from the scheduler's plan
# arena, and a candidate of a node search allocates nothing), and for
# overload rejects behind 128 deadline-dense waiting
# tasks (mix=saturated, decided by the demand bound) exactly 0 plans/op and
# <= 1 alloc/op; their queue=8 vs queue=128 ns/op growth is printed, not
# gated. The gates are ratios and counts, not absolute times, so
# they hold on any machine: a per-submit cost linear in the fleet grows
# ~100x across the sweep where the indexed hot path stays flat up to a log
# factor, and a whole-queue replan grows ~16x where an arrival ordered
# behind the queue only walks it.
# Run locally via `make bench-index`; CI runs this same script.
set -eu

GO=${GO:-go}
OUT=${OUT:-BENCH_index.json}
BENCHTIME=${BENCHTIME:-300ms}
MAX_RATIO=${MAX_RATIO:-15}

# Redirect instead of tee so a benchmark failure fails the script.
$GO test ./internal/rt -run '^$' -bench '^Benchmark(Submit(FastReject|Queued)?|AvailViewRetime)$' \
	-benchmem -benchtime "$BENCHTIME" -json > "$OUT"
$GO run ./cmd/benchgate -in "$OUT" -max-ratio "$MAX_RATIO"
