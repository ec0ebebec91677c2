#!/bin/sh
# Non-test lines of the four packages ROADMAP item 1 budgets, per package
# and in sum: the number every re-anchor used to count by hand.
set -eu
cd "$(dirname "$0")/.."
total=0
for pkg in rt service pool driver; do
	n=$(find "internal/$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%-24s %6d\n' "internal/$pkg" "$n"
	total=$((total + n))
done
printf '%-24s %6d\n' "sum (non-test wc -l)" "$total"
