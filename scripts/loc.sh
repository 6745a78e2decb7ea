#!/usr/bin/env bash
# loc.sh — print non-test Go lines per package, so the size trend is
# visible per PR next to ns/op.
#
# Usage:
#   scripts/loc.sh                # every package under the repo root
#   scripts/loc.sh internal/wire  # only the named directories
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
	dirs=("$@")
else
	mapfile -t dirs < <(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		-printf '%h\n' | sort -u | sed 's|^\./||')
fi

total=0
for d in "${dirs[@]}"; do
	n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%6d  %s\n' "$n" "$d"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
