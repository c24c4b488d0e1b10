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
#
# Assembly (.s) lines are counted apart, in a column of their own after
# the Go columns, with their own total (and delta); the column appears
# only when the tree, or the base ref, has assembly.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# lines <files-command> <cat-command>: "<package> <go|s> <lines>" per
# non-test Go file and per assembly file.
lines() {
	$1 | grep -E '\.(go|s)$' | grep -v -e '_test\.go$' -e '^bench/' |
		while read -r f; do
			printf '%s %s %s\n' "$(dirname "$f")" "${f##*.}" "$($2 "$f" | wc -l)"
		done
}

if [ $# -lt 2 ]; then
	lines "git ls-files" cat |
		awk '{ if ($2 == "go") n[$1] += $3; else { s[$1] += $3; asm = 1 }; seen[$1] = 1 }
			END { for (p in seen) print p, n[p] + 0, s[p] + 0, asm + 0 }' |
		sort -k1,1 |
		awk '{ total += $2; stotal += $3
				if ($4) printf "%7d  %5d  %s\n", $2, $3, $1; else printf "%7d  %s\n", $2, $1 }
			END { if ($4) printf "%7d  %5d  total (Go, assembly)\n", total, stotal; else printf "%7d  total\n", total }'
	exit
fi

base=$2
show() { git show "$base:$1"; }
{
	lines "git ls-files" cat | sed 's/^/now /'
	lines "git ls-tree -r --name-only $base" show | sed 's/^/base /'
} |
	awk '{ k = $1 "." $3; v[$2, k] += $4; seen[$2] = 1; if ($3 == "s") asm = 1 }
		END { for (p in seen) print p, v[p, "now.go"] + 0, v[p, "base.go"] + 0, v[p, "now.s"] + 0, v[p, "base.s"] + 0, asm + 0 }' |
	sort -k1,1 |
	awk -v base="$base" '{ total += $2; delta += $2 - $3; stotal += $4; sdelta += $4 - $5
			if ($6) printf "%7d  %+6d  %5d  %+5d  %s\n", $2, $2 - $3, $4, $4 - $5, $1
			else printf "%7d  %+6d  %s\n", $2, $2 - $3, $1 }
		END { if ($6) printf "%7d  %+6d  %5d  %+5d  total (Go, assembly; net vs %s)\n", total, delta, stotal, sdelta, base
			else printf "%7d  %+6d  total (net vs %s)\n", total, delta, base }'
