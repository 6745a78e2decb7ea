#!/usr/bin/env bash
# unreached.sh — fail on any function that no test reaches, or that no
# shipped program reaches, unless scripts/unreached.allow names it.
#
# Two coverage profiles over every package of module entangled:
#   test     one `go test -coverpkg` profile of the whole tree;
#   shipped  every program (cmd/, examples/ and bench/'s coordmark) built
#            with `go build -cover`, run over the invocations below
#            under one GOCOVERDIR, and merged with `go tool covdata`.
# A function at 0.0% in either is printed as its key — package
# directory, receiver and name, e.g. internal/db.Instance.Solve or
# entangled.Coordinate for the root package — and fails the run unless
# an allowlist pattern matches that key.
#
# Allowlist lines (scripts/unreached.allow; at most 50 entries):
#   <glob on the key>  <reason 1-5>  <the test that holds it>  [note]
# The five reasons are listed at the top of that file.
#
# A third check, floor, fails on any package with tests whose own
# `go test -cover` reads below 80% (a package with no test file is
# exempt: the server examples, which CI runs, and internal/db/dbtest).
#
# Usage:
#   scripts/unreached.sh                # test, shipped and floor
#   scripts/unreached.sh test shipped   # any of the three, by name
# Output (profiles, per-function reports, binaries, logs, data
# directories) goes to .unreached/ at the checkout root.
set -euo pipefail
shopt -s extglob
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.unreached"
allow="$root/scripts/unreached.allow"
halves="${*:-test shipped floor}"

# --- the allowlist -------------------------------------------------------
mapfile -t entries < <(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow")
if [ "${#entries[@]}" -gt 50 ]; then
	echo "$allow: ${#entries[@]} entries > 50"; exit 1
fi
for e in "${entries[@]}"; do
	read -r pattern reason test _ <<<"$e"
	case "$reason" in 1 | 2 | 3 | 4 | 5) ;; *)
		echo "$allow: $pattern: reason must be 1-5, not '$reason'"; exit 1 ;;
	esac
	if [ -z "$test" ] || ! git grep -q --untracked -E "^func $test\(" -- '*_test.go'; then
		echo "$allow: $pattern: no test function '$test'"; exit 1
	fi
done
allowed() {
	local e pattern
	for e in "${entries[@]}"; do
		read -r pattern _ <<<"$e"
		# shellcheck disable=SC2254 # the pattern is a glob on purpose
		case "$1" in $pattern) return 0 ;; esac
	done
	return 1
}

# check NAME WHAT: write `go tool cover -func` for $out/NAME.out to
# $out/NAME.txt, print its total, and fail on each function at 0.0% the
# allowlist does not name, printing its key under "functions WHAT:".
check() {
	local report="$out/$1.txt" unreached
	go tool cover -func="$out/$1.out" >"$report"
	tail -n 1 "$report"
	unreached="$(awk '$NF == "0.0%" { split($1, at, ":"); sub(/^entangled\//, "", at[1]); print at[1], at[2] }' "$report" |
		while read -r file line; do
			dir="$(dirname "$file")"
			[ "$dir" = . ] && dir=entangled
			# func (r *Recv[T]) Name( → Recv.Name; func Name[T any]( → Name
			fn="$(sed -n "${line}p" "$file" |
				sed -E -e 's/^func \(([^)]*[ *])?([A-Za-z0-9_]+)(\[[^]]*\])?\) /func \2./' \
					-e 's/^func ([A-Za-z0-9_.]+).*/\1/')"
			allowed "$dir.$fn" || echo "$dir.$fn  ($file:$line)"
		done)"
	if [ -n "$unreached" ]; then
		echo "functions $2:"; echo "$unreached"; status=1
	fi
}

mkdir -p "$out"
status=0

# --- the test profile ----------------------------------------------------
if [[ " $halves " == *" test "* ]]; then
	echo "== test profile (every test of the tree)"
	go test -coverpkg=./internal/...,./cmd/...,. -coverprofile="$out/test.out" ./... >"$out/test.log" ||
		{ cat "$out/test.log"; exit 1; }
	check test "no test reaches"
fi

# --- the shipped profile -------------------------------------------------
if [[ " $halves " == *" shipped "* ]]; then
	echo "== shipped profile (the programs, over the invocations below)"
	bin="$out/bin" cov="$out/covdata" logs="$out/logs" tmp="$out/tmp"
	rm -rf "$cov" "$logs" "$tmp"
	mkdir -p "$bin" "$cov" "$logs" "$tmp"
	export GOCOVERDIR="$cov" TMPDIR="$tmp"
	for p in cmd/* examples/*; do
		go build -cover -coverpkg=entangled/... -o "$bin/$(basename "$p")" "./$p"
	done
	(cd bench && GOWORK=off go build -cover -coverpkg=entangled/... -o "$bin/coordmark" ./coordmark)

	# ok LOG CMD...: run one invocation, its output in LOG; a failure
	# prints the log and ends the script.
	ok() {
		local log="$logs/$1"
		shift
		echo "  $*" | sed "s|$bin/||"
		"$@" >"$log" 2>&1 || { cat "$log"; echo "failed: $*"; exit 1; }
	}
	for e in examples/*; do
		ok "ex-$(basename "$e")" "$bin/$(basename "$e")"
	done
	small=(-rows 200 -repeats 1)
	for f in 4 5 6 7 8; do
		ok "fig$f" "$bin/coordbench" -fig "$f" "${small[@]}"
	done
	ok fig-csv "$bin/coordbench" -fig all -csv "${small[@]}"
	ok fig-md "$bin/coordbench" -fig all -markdown "${small[@]}"
	ok fig-latency "$bin/coordbench" -fig 4 -latency 1ms "${small[@]}"
	ok hardness "$bin/hardness" -vars 3 -clauses 3 -seed 7
	ok hardness-dimacs "$bin/hardness" -dimacs cmd/hardness/testdata/small.cnf
	tables=(-table F=cmd/coordctl/testdata/flights.csv -table H=cmd/coordctl/testdata/hotels.csv)
	for flag in "" -brute -explain -dot; do
		ok "coordctl$flag" "$bin/coordctl" -queries cmd/coordctl/testdata/band.eq "${tables[@]}" $flag
	done
	ok coordctl-json "$bin/coordctl" -queries cmd/coordctl/testdata/band.json "${tables[@]}"
	ok socialsim "$bin/socialsim" -seed 1

	# boot NAME ARGS... starts a coordserve; drain waits for each one
	# booted since the last drain to print its HTTP address, calls it
	# (/healthz, /metrics, one batch, a session joined and deleted, and
	# /v1/cluster on a cluster node), then sends SIGINT to all of them;
	# each must print "drained cleanly".
	q='{"id": "a", "head": [{"rel": "R", "args": ["=A", "?x"]}], "body": [{"rel": "T", "args": ["?x", "=c1"]}]}'
	call() { curl -fsS "$@" >>"$logs/${names[$i]}.http"; echo >>"$logs/${names[$i]}.http"; }
	boot() {
		local name="$1"
		shift
		echo "  coordserve $*"
		"$bin/coordserve" "$@" >"$logs/$name" 2>&1 &
		pids+=($!)
		names+=("$name")
	}
	drain() {
		local i addr
		for i in "${!pids[@]}"; do
			for _ in $(seq 300); do
				grep -qs 'listening on' "$logs/${names[$i]}" && break
				kill -0 "${pids[$i]}" 2>/dev/null || break
				sleep 0.1
			done
			addr="$(sed -n 's/^coordination service listening on \([^ ]*\) .*/\1/p' "$logs/${names[$i]}")"
			[ -n "$addr" ] || { cat "$logs/${names[$i]}"; echo "coordserve ${names[$i]} did not start"; exit 1; }
			call "http://$addr/healthz"
			call "http://$addr/metrics"
			call -d "{\"requests\": [{\"id\": \"r1\", \"queries\": [$q]}]}" "http://$addr/v1/coordinate"
			call -d "{\"id\": \"s-${names[$i]}\"}" "http://$addr/v1/sessions"
			call -d "{\"query\": $q}" "http://$addr/v1/sessions/s-${names[$i]}/join"
			call -X DELETE "http://$addr/v1/sessions/s-${names[$i]}"
			if [[ ${names[$i]} == cluster-* ]]; then call "http://$addr/v1/cluster"; fi
		done
		for i in "${!pids[@]}"; do kill -INT "${pids[$i]}"; done
		for i in "${!pids[@]}"; do
			wait "${pids[$i]}" || { cat "$logs/${names[$i]}"; echo "coordserve ${names[$i]} failed"; exit 1; }
			grep -q 'drained cleanly' "$logs/${names[$i]}" || { cat "$logs/${names[$i]}"; exit 1; }
		done
		pids=() names=()
	}
	pids=() names=()
	# A drain that fails exits the script: the nodes that did start are
	# killed on the way out rather than left running.
	trap 'for p in "${pids[@]}"; do kill -KILL "$p" 2>/dev/null || true; done' EXIT
	any=127.0.0.1:0
	printf '{"default": {"rate": 10000, "max_in_flight": 64}, "tenants": {"t1": {"rate": 100, "weight": 2}}}\n' >"$tmp/tenants.json"
	boot mem -listen "$any" -listen-binary "$any" -shards 4 -rows 1000
	drain
	for run in fresh recovering; do
		boot "durable-$run" -listen "$any" -rows 1000 -data-dir "$tmp/durable" -fsync 10ms -tenants "$tmp/tenants.json"
		drain
		boot "sharded-$run" -listen "$any" -rows 1000 -shards 4 -data-dir "$tmp/sharded"
		drain
	done
	grep -q "^recovering" "$logs/durable-recovering" "$logs/sharded-recovering"
	# Fixed ports below Linux's ephemeral range (32768 up), where no
	# outgoing connection of this host can hold one.
	peers="n1=127.0.0.1:27311,n2=127.0.0.1:27312,n3=127.0.0.1:27313"
	for n in 1 2 3; do
		boot "cluster-n$n" -listen "127.0.0.1:2732$n" -rows 1000 -cluster-node "n$n" -cluster-peers "$peers"
	done
	drain
	echo "  coordserve (no flags)"
	if "$bin/coordserve" >"$logs/usage" 2>&1; then echo "coordserve with no flags exited 0"; exit 1; fi

	for w in batch_http_small batch_binary_large session_mem_churn session_durable_fsync cluster3_tenants_http consistent_inproc; do
		for t in 0 1; do
			ok "coordmark-$w-$t" "$bin/coordmark" -workload "$w" -seed 1 -seconds 1 -trace "$t"
		done
	done

	go tool covdata textfmt -i="$cov" -o "$out/shipped.all"
	# `go tool cover` cannot resolve the bench module's own files from here.
	grep -v '^entangled/bench/' "$out/shipped.all" >"$out/shipped.out"
	check shipped "no shipped program reaches"
fi
# --- the per-package floor ----------------------------------------------
if [[ " $halves " == *" floor "* ]]; then
	echo "== per-package floor (80% of statements by each package's own tests)"
	go test -cover ./... >"$out/floor.txt" || { cat "$out/floor.txt"; exit 1; }
	low="$(awk '$1 == "ok" { for (i = 3; i < NF; i++) if ($i == "coverage:" && $(i + 1) + 0 < 80) print $2, $(i + 1) }' "$out/floor.txt")"
	if [ -n "$low" ]; then
		echo "packages below 80%:"; echo "$low"; status=1
	fi
fi
exit $status
