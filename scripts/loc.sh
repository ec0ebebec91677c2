#!/bin/sh
# Non-test lines of the four admission packages, per package and in sum
# (the design target under "Every PR keeps these green" in ROADMAP.md:
# four-package LOC <= 4 800), then the root package on its own line and
# the total with it (ROADMAP item 10 counts the root package too), and
# last the non-test total over every Go package outside bench/.
set -eu
cd "$(dirname "$0")/.."
count() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
total=0
for pkg in rt service pool driver; do
	n=$(count "internal/$pkg")
	printf '%-24s %6d\n' "internal/$pkg" "$n"
	total=$((total + n))
done
printf '%-24s %6d\n' "sum (non-test wc -l)" "$total"
root=$(count .)
printf '%-24s %6d\n' "root package (rtdls)" "$root"
printf '%-24s %6d\n' "total with root" "$((total + root))"
all=$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
printf '%-24s %6d\n' "all Go outside bench/" "$all"
