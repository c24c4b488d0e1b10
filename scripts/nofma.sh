#!/usr/bin/env bash
# Fails on any fused multiply-add in the module's hand-written assembly.
# The row kernels promise bitwise agreement with the Go loops, which
# amd64 compiles to separately rounded multiplies and adds; one fused
# instruction (one rounding for a·b + c) would break that silently.
# Prints each .s file's line count and fused-instruction count.
# Usage: scripts/nofma.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

status=0
while read -r f; do
	hits=$(grep -nE '^[^/]*\<V?F(N?MADD|N?MSUB)[0-9A-Z]*\>' "$f" || true)
	n=$(grep -c . <<<"$hits" || true)
	printf '%-40s %5d lines  %d fused\n' "$f" "$(wc -l <"$f")" "$n"
	if [ "$n" -gt 0 ]; then
		sed 's/^/    /' <<<"$hits" >&2
		status=1
	fi
done < <(git ls-files --cached --others --exclude-standard '*.s')
exit $status
