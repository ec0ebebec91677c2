#!/bin/sh
# Contention benchmark gate: run the BenchmarkSubmitContention sweep
# (mix={cold,hot} x mode={spec,serial} x gos={1..16} submitters against one
# shard) as a test2json stream (BENCH_contention.json, uploaded by CI next
# to BENCH_index.json), then gate the optimistic-admission contract with
# cmd/benchgate -contention:
#   - cold mix (epoch-neutral rejects, ~zero conflicts): speculation at
#     gos=8 against gos=1 and against serialized gos=8, reported without
#     failing (a lone submitter never speculates, so mode=spec gos=1
#     measures the live, serialized road, and no bar against it has been
#     measured on 4 or more procs);
#   - hot mix (every install moves the epoch, ~100% conflicts): the
#     adaptive conflict gate must hold speculation within a few percent of
#     fully serialized throughput.
# The hot gate skips with a note on single-proc machines, where submitters
# cannot overlap and its premise (real parallelism) is absent; below 4
# procs it reports its ratios without failing (an unchanged tree reads
# x0.46 to x1.09 there from run to run).
# Run locally via `make bench-contention`; CI runs this same script.
set -eu

GO=${GO:-go}
OUT=${OUT:-BENCH_contention.json}
BENCHTIME=${BENCHTIME:-2000x}

# Redirect instead of tee so a benchmark failure fails the script.
$GO test . -run '^$' -bench '^BenchmarkSubmitContention$' \
	-benchmem -benchtime "$BENCHTIME" -json > "$OUT"
$GO run ./cmd/benchgate -contention -in "$OUT"
