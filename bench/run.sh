#!/usr/bin/env bash
# Builds coordmark from source into .bench_build/ at the checkout root and
# runs it with the arguments given. Everything the go tool and coordmark
# write (build cache, temporary files, telemetry, data directories, trace
# files) is redirected under .bench_build/, so a run reads and writes only
# inside its checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$bench")/.bench_build/coordmark"
mkdir -p "$out/tmp" "$out/xdg"
export TMPDIR="$out/tmp"
(
	cd "$bench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
		XDG_CONFIG_HOME="$out/xdg" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/coordmark" ./coordmark
)
exec "$out/coordmark" "$@"
