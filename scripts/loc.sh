#!/usr/bin/env bash
# Non-test Go lines per package, bench/ excluded (it is the measuring
# instrument, not the system). "Net lines removed" is a reported metric
# (ROADMAP aim 2); CI prints this table on every run so the number is in
# the log. Usage: scripts/loc.sh [repo-root [base-ref]]
#
# With a base ref (e.g. `scripts/loc.sh . origin/main`) each row also
# carries the package's line delta against that commit, and the total
# row the net delta. Tracked files are counted as they stand in the
# working tree, so `git add` new files first.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# lines <files-command> <cat-command>: "<package> <lines>" per non-test file.
lines() {
	$1 | grep '\.go$' | grep -v -e '_test\.go$' -e '^bench/' |
		while read -r f; do
			printf '%s %s\n' "$(dirname "$f")" "$($2 "$f" | wc -l)"
		done
}

if [ $# -lt 2 ]; then
	lines "git ls-files" cat |
		awk '{ n[$1] += $2 } END { for (p in n) print n[p], p }' |
		sort -k2 |
		awk '{ printf "%7d  %s\n", $1, $2; total += $1 } END { printf "%7d  total\n", total }'
	exit
fi

base=$2
show() { git show "$base:$1"; }
{
	lines "git ls-files" cat | sed 's/^/now /'
	lines "git ls-tree -r --name-only $base" show | sed 's/^/base /'
} |
	awk '{ if ($1 == "now") n[$2] += $3; else b[$2] += $3; seen[$2] = 1 }
		END { for (p in seen) print p, n[p] + 0, b[p] + 0 }' |
	sort -k1,1 |
	awk -v base="$base" '{ printf "%7d  %+6d  %s\n", $2, $2 - $3, $1; total += $2; delta += $2 - $3 }
		END { printf "%7d  %+6d  total (net vs %s)\n", total, delta, base }'
