#!/usr/bin/env bash
# `go test -run <regex>` exits 0 when the regex matches nothing, so a
# renamed test drops out of a filtered CI step without anyone noticing.
# This wrapper runs `go test -v` with the given arguments, prints how many
# top-level tests each package ran, and fails when a package ran none.
# Usage: scripts/gotest_filtered.sh <packages and go test flags, -run included>
set -uo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT

go test -v "$@" 2>&1 | tee "$log"
status=${PIPESTATUS[0]}

awk '
	/^=== RUN   [^\/]+$/ { n++; total++ }
	/^(ok  |FAIL|\?   )\t/ {
		printf "%7d tests  %s\n", n, $2
		if (n == 0) empty = empty " " $2
		n = 0
	}
	END {
		printf "%7d tests  total\n", total
		if (empty != "" || total == 0) {
			print "gotest_filtered: the filter selected no test in:" (empty == "" ? " (any package)" : empty)
			exit 1
		}
	}
' "$log" || status=1
exit "$status"
