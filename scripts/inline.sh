#!/usr/bin/env bash
# Fails unless the compiler inlines the per-cell helpers of the recon
# edge kernels (the slope limiters and PPM's parabola, plus the row
# adapter's size check) and the signal speeds of the Riemann row kernels,
# and prints each one's inline cost against the budget (80). ppmSlope
# sits 3 units under it: one added operation would silently put a call
# back into every cell of every PPM line, with no test failing.
# Usage: scripts/inline.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

out=$(go build -gcflags=-m=2 ./internal/recon ./internal/state 2>&1)
status=0
for fn in recon.checkSizes recon.ppmSlope recon.ppmEdges recon.mcSlope recon.minmodSlope recon.vanLeerSlope state.SignalSpeeds; do
	pkg=${fn%%.*} name=${fn#*.}
	line=$(grep -E "^internal/$pkg/[^:]+:[0-9]+:[0-9]+: (can|cannot) inline $name[ :]" <<<"$out" || true)
	case "$line" in
	*"can inline $name with cost"*)
		printf '%-22s cost %s\n' "$fn" "$(sed -E 's/.* with cost ([0-9]+).*/\1/' <<<"$line")"
		;;
	*)
		printf '%-22s NOT INLINED: %s\n' "$fn" "${line:-no -m report}" >&2
		status=1
		;;
	esac
done
exit $status
