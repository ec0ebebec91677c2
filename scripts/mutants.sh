#!/usr/bin/env bash
# Runs the mutants of scripts/mutants.txt: each one changes one exact text
# in one file of a temporary copy of the tree, and the tests it names must
# then fail. A mutant whose tests still pass is a survivor: the tests have
# lost the power the table says they have. A mutant whose old text is not
# found exactly once, or whose copy no longer compiles, is an error in the
# table. The working tree itself is never changed.
#
# Usage: scripts/mutants.sh [table]   (run from anywhere; `make mutants`)
# Exits 0 when every mutant is killed, 1 otherwise.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
table=${1:-$root/scripts/mutants.txt}
GO=${GO:-go}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$tmp" -xf -
cd "$tmp"

killed=0
failed=()
n=0
while IFS= read -r row; do
	[[ -z $row || $row == \#* ]] && continue
	n=$((n + 1))
	# Split on single tabs: read with IFS=$'\t' would fold a run of tabs (an
	# IFS whitespace character) into one and lose an empty column.
	cols=()
	while [[ $row == *$'\t'* ]]; do
		cols+=("${row%%$'\t'*}")
		row=${row#*$'\t'}
	done
	cols+=("$row")
	if ((${#cols[@]} != 5)); then
		echo "ERROR   $n: ${#cols[@]} columns, want 5: ${cols[*]}"
		failed+=("$n (${#cols[@]} columns)")
		continue
	fi
	file=${cols[0]} old=${cols[1]} new=${cols[2]} tests=${cols[3]} pkgs=${cols[4]}
	label="$n: $file: $old -> $new"
	src=$(<"$file")
	rest=${src#*"$old"}
	if [[ $rest == "$src" || $rest == *"$old"* ]]; then
		echo "ERROR   $label: old text not found exactly once"
		failed+=("$label (stale)")
		continue
	fi
	cp "$file" "$file.orig"
	printf '%s\n' "${src/"$old"/"$new"}" >"$file"
	read -ra pkglist <<<"$pkgs"
	if ! $GO test -count=1 -run '^$' "${pkglist[@]}" >/dev/null 2>&1; then
		echo "ERROR   $label: does not compile"
		failed+=("$label (does not compile)")
	elif $GO test -count=1 -run "$tests" "${pkglist[@]}" >/dev/null 2>&1; then
		echo "SURVIVE $label: $tests passes"
		failed+=("$label (survived $tests)")
	else
		echo "killed  $label"
		killed=$((killed + 1))
	fi
	mv "$file.orig" "$file"
done <"$table"

echo "$killed of $n mutants killed"
if ((${#failed[@]} > 0)); then
	printf 'not killed: %s\n' "${failed[@]}"
	exit 1
fi
