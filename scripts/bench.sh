#!/usr/bin/env sh
# Runs the headline pipeline benchmarks and emits one JSON document with
# ns/op, B/op and allocs/op per benchmark, seeding the perf trajectory
# (compare successive BENCH_*.json to see the suite speed over PRs).
#
# Usage:
#   scripts/bench.sh [output.json] [benchtime]
#   scripts/bench.sh --compare OLD.json NEW.json [threshold_pct]
#
# --compare diffs two snapshots benchmark by benchmark and exits non-zero
# when any shared benchmark's ns/op or allocs/op regressed by more than
# threshold_pct (default 15) — the CI trend check over the committed
# BENCH_*.json history. Snapshots carry the machine shape (GOMAXPROCS / CPU
# count) in their metadata; when the two snapshots come from differently
# sized machines the comparison is skipped (exit 0 with a notice), because a
# wall-clock diff across machines is noise, not a trend.
set -eu

# extract_ns prints "name ns_per_op allocs_per_op" per line from a bench.sh
# JSON snapshot (one benchmark object per line, as emitted below;
# allocs_per_op prints as "-" when the snapshot lacks it).
extract_ns() {
    awk '
    /"name":/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        allocs = "-"
        if ($0 ~ /"allocs_per_op":/) {
            allocs = $0; sub(/.*"allocs_per_op": /, "", allocs); sub(/[,}].*/, "", allocs)
        }
        print name, ns, allocs
    }' "$1"
}

# extract_cpus prints the snapshot's recorded CPU count ("-" when the
# snapshot predates the metadata field). The machine-shape check compares
# physical CPU counts, not GOMAXPROCS: an override of the latter on the same
# box must not disable the trend check.
extract_cpus() {
    awk '
    /"cpus":/ {
        v = $0; sub(/.*"cpus": /, "", v); sub(/[,}].*/, "", v)
        print v; found = 1; exit
    }
    END { if (!found) print "-" }' "$1"
}

if [ "${1:-}" = "--compare" ]; then
    old="${2:?usage: bench.sh --compare OLD.json NEW.json [threshold_pct]}"
    new="${3:?usage: bench.sh --compare OLD.json NEW.json [threshold_pct]}"
    threshold="${4:-15}"
    oldcpus=$(extract_cpus "$old")
    newcpus=$(extract_cpus "$new")
    if [ "$oldcpus" != "-" ] && [ "$newcpus" != "-" ] && [ "$oldcpus" != "$newcpus" ]; then
        echo "bench trend: $old (cpus=$oldcpus) vs $new (cpus=$newcpus): different machines, skipping comparison"
        exit 0
    fi
    { extract_ns "$old" | sed 's/^/old /'; extract_ns "$new" | sed 's/^/new /'; } | awk -v threshold="$threshold" -v old="$old" -v new="$new" '
    $1 == "old" { was_ns[$2] = $3; was_al[$2] = $4 }
    $1 == "new" { now_ns[$2] = $3; now_al[$2] = $4; order[n++] = $2 }
    END {
        printf "bench trend: %s -> %s (threshold +%g%% ns/op, +%g%% allocs/op)\n", old, new, threshold, threshold
        bad = 0; shared = 0
        for (i = 0; i < n; i++) {
            name = order[i]
            if (!(name in was_ns)) { printf "  new       %-46s %12.0f ns/op\n", name, now_ns[name]; continue }
            shared++
            pct = (now_ns[name] - was_ns[name]) / was_ns[name] * 100
            flag = "ok"
            if (pct > threshold) { flag = "REGRESSED"; bad++ }
            printf "  %-9s %-46s %12.0f -> %12.0f ns/op (%+6.1f%%)\n", flag, name, was_ns[name], now_ns[name], pct
            if (was_al[name] != "-" && now_al[name] != "-") {
                if (was_al[name] + 0 > 0) {
                    apct = (now_al[name] - was_al[name]) / was_al[name] * 100
                    if (apct > threshold) {
                        printf "  REGRESSED %-46s %12.0f -> %12.0f allocs/op (%+6.1f%%)\n", name, was_al[name], now_al[name], apct
                        bad++
                    }
                } else if (now_al[name] + 0 > 0) {
                    # A zero-alloc baseline regressing to any allocations is
                    # always a real regression, not a percentage question.
                    printf "  REGRESSED %-46s %12.0f -> %12.0f allocs/op (was 0)\n", name, was_al[name], now_al[name]
                    bad++
                }
            }
        }
        if (shared == 0) { print "  no shared benchmarks to compare" >"/dev/stderr"; exit 2 }
        if (bad > 0) { printf "%d metric(s) regressed beyond +%g%%\n", bad, threshold >"/dev/stderr"; exit 1 }
        print "no ns/op or allocs/op regression beyond threshold"
    }'
    exit $?
fi

out="${1:-BENCH_$(date +%Y%m%d).json}"
benchtime="${2:-3x}"
pattern='BenchmarkTable1TraceSuite$|BenchmarkMeasureSuiteWorkers|BenchmarkLongTraceWorkers|BenchmarkAssemblerBlock|BenchmarkTraceGeneration|BenchmarkTraceGenerationSharded|BenchmarkWindowReplayDeepOffset|BenchmarkStoreWrite$|BenchmarkFlowMeasurement|BenchmarkRateBinning|BenchmarkModelAveragedVariance$|BenchmarkAveragedVarianceBatch$|BenchmarkLSTBatch$|BenchmarkModelSuite$|BenchmarkProgramsPhase1|BenchmarkServiceIngest'
# Per-benchmark -benchtime overrides (NAME_REGEX=BENCHTIME), run as
# separate passes so benchmarks whose per-op cost is wildly below the
# suite's get a sane iteration count: the sampler sub-benchmarks are
# nanoseconds per op, where the suite-wide 3 iterations is pure noise.
overrides='BenchmarkSamplers=100000x'

cd "$(dirname "$0")/.."

cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 0)
gomaxprocs="${GOMAXPROCS:-$cpus}"

raw=$(go test -run=NONE -bench="$pattern" -benchtime="$benchtime" -benchmem .)
printf '%s\n' "$raw" >&2
for ov in $overrides; do
    ovraw=$(go test -run=NONE -bench="${ov%%=*}" -benchtime="${ov#*=}" -benchmem .)
    printf '%s\n' "$ovraw" >&2
    raw="$raw
$ovraw"
done

printf '%s\n' "$raw" | awk -v benchtime="$benchtime" -v gmp="$gomaxprocs" -v cpus="$cpus" '
BEGIN {
    printf "{\n  \"benchtime\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"cpus\": %s,\n  \"benchmarks\": [\n", benchtime, gmp, cpus
    n = 0
}
$1 ~ /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, $2, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { printf "\n  ]\n}\n" }
' > "$out"

echo "wrote $out" >&2
