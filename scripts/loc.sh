#!/usr/bin/env bash
# Non-test Go lines per package, bench/ excluded (it is the measuring
# instrument, not the system). "Net lines removed" is a reported metric
# (ROADMAP aim 2); CI prints this table on every run so the number is in
# the log. Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

git ls-files '*.go' |
	grep -v -e '_test\.go$' -e '^bench/' |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2 } END { for (p in n) print n[p], p }' |
	sort -k2 |
	awk '{ printf "%7d  %s\n", $1, $2; total += $1 } END { printf "%7d  total\n", total }'
