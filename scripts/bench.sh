#!/bin/sh
# Run the parallel-campaign benchmark and record its ops/sec and
# allocations per campaign in a BENCH_<host>.json snapshot at the
# repository root, one JSON object per `make verify` (or direct)
# invocation. Each benchmark runs
# -count=3 and the snapshot records the min and median per worker
# count, so a single noisy run cannot masquerade as a regression.
# Pass extra iterations via BENCHTIME (default 1x, i.e. one 1k-test
# campaign per worker count) and repetitions via BENCHCOUNT.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
BENCHCOUNT="${BENCHCOUNT:-3}"
cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
out="BENCH_$(uname -n | tr -c 'A-Za-z0-9' '_' | sed 's/_*$//').json"

raw=$(go test -run '^$' -bench BenchmarkCampaignParallel -benchtime "$BENCHTIME" -count "$BENCHCOUNT" .)
echo "$raw"

# The metrics hot path is the observability layer's overhead budget:
# a few ns/op and zero allocations, checked here on every bench run.
hot=$(go test -run '^$' -bench 'BenchmarkMetricsHotPath$' -benchmem ./internal/obs)
echo "$hot"

# The sharded store hot path must hold its speedup over the pre-shard
# baseline (one lock stripe, every read a full sort through the store
# tests' reference renderer); the ratio lands in the snapshot so a
# regression shows up as a falling "speedup".
storeraw=$(go test -run '^$' -bench 'BenchmarkShardedStoreHotPath' -benchtime "${STORE_BENCHTIME:-0.5s}" ./internal/store)
echo "$storeraw"

# The checker's cost per trace: the full battery on an fbfeed Test 2
# trace, the divergence window scans and the streaming aggregator on a
# googleplus Test 2 trace, each as ns/op and allocs/op.
checkraw=$(go test -run '^$' -bench 'BenchmarkCheckTest$|BenchmarkDivergenceWindows$|BenchmarkAggregatorAddTest2$' -benchmem .)
echo "$checkraw"

# The scheduler's actor start-up cost: one group of three actors that
# use a few KB of stack, started and joined, as ns/op and allocs/op.
spawnraw=$(go test -run '^$' -bench 'BenchmarkSimSpawn$' -benchtime 20000x ./internal/vtime)
echo "$spawnraw"

# The scheduler's handoff cost: one Sleep that must park because the
# other actor is ready or due at the same instant, as ns/op and
# allocs/op.
handoffraw=$(go test -run '^$' -bench 'BenchmarkSimHandoff$' -benchtime 200000x .)
echo "$handoffraw"

# The engine's layers below the probe: one fbgroup simulated read (the
# entry-level view the engine records from, and Read with its []Post
# conversion) and one simnet one-way delay draw, as ns/op and
# allocs/op.
readraw=$(go test -run '^$' -bench 'BenchmarkServiceRead/' -benchtime 20000x ./internal/service)
echo "$readraw"
simnetraw=$(go test -run '^$' -bench 'BenchmarkSimnetOneWay$' -benchtime 200000x ./internal/simnet)
echo "$simnetraw"

# A short closed-loop conload run against the in-process fbgroup profile
# records end-to-end service latency percentiles next to the
# microbenchmarks.
loadtmp=$(mktemp)
trap 'rm -f "$loadtmp"' EXIT
go run ./cmd/conload -inproc -service fbgroup -users 8 \
	-duration "${CONLOAD_DURATION:-2s}" -write-ratio 0.1 -api-delay 0 \
	-run-id "bench$$" -out "$loadtmp"

{
	echo "$raw" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v cores="$cores" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkCampaignParallel\// {
	split($1, name, /[=-]/)
	p = name[2]
	if (!(p in count)) order[np++] = p
	i = count[p]++
	ns[p, i] = $3
	tps[p, i] = $5
	# -benchmem columns (ReportAllocs): B/op and allocs/op per campaign
	if ($8 == "B/op") bytes[p, i] = $7
	if ($10 == "allocs/op") allocs[p, i] = $9
}
function med(arr, p, n,    a, b, c) {
	# median of up to three repetitions (n==1 and n==2 degrade sanely)
	a = arr[p, 0]; b = arr[p, 1]; c = arr[p, 2]
	if (n == 1) return a
	if (n == 2) return (a < b) ? b : a
	if ((a <= b && b <= c) || (c <= b && b <= a)) return b
	if ((b <= a && a <= c) || (c <= a && a <= b)) return a
	return c
}
function mini(arr, p, n,    m, i) {
	m = arr[p, 0]
	for (i = 1; i < n; i++) if (arr[p, i] < m) m = arr[p, i]
	return m
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkCampaignParallel\",\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"count\": %d,\n", count[order[0]]
	printf "  \"results\": [\n"
	for (j = 0; j < np; j++) {
		p = order[j]
		n = count[p]
		printf "    {\"parallelism\": %d, \"ns_per_op_min\": %d, \"ns_per_op_median\": %d, \"tests_per_sec_min\": %d, \"tests_per_sec_median\": %d, \"allocs_per_op\": %d, \"bytes_per_op\": %d}%s\n", \
			p, mini(ns, p, n), med(ns, p, n), mini(tps, p, n), med(tps, p, n), med(allocs, p, n), med(bytes, p, n), (j < np - 1) ? "," : ""
	}
	printf "  ],\n"
	printf "  \"cores\": %d,\n", cores
	# Scaling headline: median tests/sec at 8 workers over 1 worker. On
	# a single-core host this hovers near 1.0 by construction — the
	# campaign is CPU-bound virtual-time simulation — so record the core
	# count next to it and let the consumer judge.
	p1 = med(tps, "1", count["1"]) + 0
	p8 = med(tps, "8", count["8"]) + 0
	if (p1 > 0 && p8 > 0)
		printf "  \"speedup_p8_over_p1\": %.2f,\n", p8 / p1
	else
		printf "  \"speedup_p8_over_p1\": null,\n"
}'
	echo "$hot" | awk '
/^BenchmarkMetricsHotPath[- \t]/ {
	printf "  \"metrics_hot_path\": {\"ns_per_op\": %s, \"allocs_per_op\": %d},\n", $3, $7
	found = 1
	exit
}
END {
	if (!found) printf "  \"metrics_hot_path\": null,\n"
}'
	echo "$storeraw" | awk '
/^BenchmarkShardedStoreHotPath\/baseline/ { base = $3 }
/^BenchmarkShardedStoreHotPath\/sharded/  { shard = $3 }
END {
	if (base > 0 && shard > 0)
		printf "  \"store_hot_path\": {\"baseline_ns_per_op\": %d, \"sharded_ns_per_op\": %d, \"speedup\": %.2f},\n", base, shard, base / shard
	else
		printf "  \"store_hot_path\": null,\n"
}'
	echo "$checkraw" | awk '
function entry(name) {
	if (name in ns)
		return sprintf("{\"ns_per_op\": %d, \"allocs_per_op\": %d}", ns[name], allocs[name])
	return "null"
}
/^Benchmark(CheckTest|DivergenceWindows|AggregatorAddTest2)(-[0-9]+)?[ \t]/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns[name] = $3
	allocs[name] = $7
}
END {
	printf "  \"checker\": {\"check_test\": %s, \"divergence_windows\": %s, \"aggregator_add_test2\": %s},\n", \
		entry("BenchmarkCheckTest"), entry("BenchmarkDivergenceWindows"), entry("BenchmarkAggregatorAddTest2")
}'
	echo "$spawnraw" | awk '
/^BenchmarkSimSpawn(-[0-9]+)?[ \t]/ {
	printf "  \"sim_spawn\": {\"ns_per_op\": %d, \"allocs_per_op\": %d},\n", $3, $7
	found = 1
	exit
}
END {
	if (!found) printf "  \"sim_spawn\": null,\n"
}'
	echo "$handoffraw" | awk '
/^BenchmarkSimHandoff(-[0-9]+)?[ \t]/ {
	printf "  \"sim_handoff\": {\"ns_per_op\": %d, \"allocs_per_op\": %d},\n", $3, $7
	found = 1
	exit
}
END {
	if (!found) printf "  \"sim_handoff\": null,\n"
}'
	echo "$readraw" | awk '
function entry(name) {
	if (name in ns)
		return sprintf("{\"ns_per_op\": %d, \"allocs_per_op\": %d}", ns[name], allocs[name])
	return "null"
}
/^BenchmarkServiceRead\/(view|posts)(-[0-9]+)?[ \t]/ {
	name = $1
	sub(/^BenchmarkServiceRead\//, "", name)
	sub(/-[0-9]+$/, "", name)
	ns[name] = $3
	allocs[name] = $7
}
END {
	printf "  \"service_read\": {\"view\": %s, \"posts\": %s},\n", entry("view"), entry("posts")
}'
	echo "$simnetraw" | awk '
/^BenchmarkSimnetOneWay(-[0-9]+)?[ \t]/ {
	printf "  \"simnet\": {\"ns_per_op\": %d, \"allocs_per_op\": %d},\n", $3, $7
	found = 1
	exit
}
END {
	if (!found) printf "  \"simnet\": null,\n"
}'
	printf '  "conload": '
	cat "$loadtmp"
	printf '}\n'
} >>"$out"

echo "bench: appended data point to $out" >&2

speedup=$(grep -o '"speedup_p8_over_p1": [0-9.]*' "$out" | tail -1 | awk '{print $2}')
if [ -n "$speedup" ] && awk "BEGIN { exit !($speedup < 2) }"; then
	echo "bench: WARNING: speedup_p8_over_p1 = $speedup (< 2x) on $cores core(s)" >&2
	if [ "$cores" -le 1 ]; then
		echo "bench: note: single-core host; parallel speedup is not expected here" >&2
	fi
fi
