#!/bin/sh
# bench.sh — run the headline benchmarks and emit BENCH_<date>.json so
# the performance trajectory is trackable PR-over-PR, or compare two
# snapshots benchstat-style.
#
# Usage: scripts/bench.sh [bench-regex] [count]
#        scripts/bench.sh compare OLD.json NEW.json
#
#   bench-regex  benchmarks to run (default: the paper-table suite, the
#                engine hot path and the decode/lift/match layers)
#   count        -count passed to go test (default 5)
#
# The JSON is a list of {name, iterations, ns_per_op, bytes_per_op,
# allocs_per_op} records, one per benchmark result line, suitable for
# jq or a dashboard. The raw `go test` output is preserved next to it
# as BENCH_<date>.txt for benchstat. An existing snapshot for the same
# date is never overwritten: a .2/.3/... suffix is added, so old-vs-new
# comparison against the previous snapshot stays possible.
#
# Compare mode joins two snapshot JSONs by benchmark name and prints
# old/new ns_per_op and allocs_per_op with deltas (negative = faster /
# fewer): the quick regression check before committing a perf change.
set -eu

cd "$(dirname "$0")/.."

compare() {
    OLD="$1"
    NEW="$2"
    awk '
    function basename_bench(n) {
        # strip trailing -N GOMAXPROCS suffix go test appends
        sub(/-[0-9]+$/, "", n)
        return n
    }
    /"name"/ {
        line = $0
        gsub(/[",]/, "", line)
        name = ""; ns = ""; allocs = ""
        n = split(line, parts, /[ \t{}]+/)
        for (i = 1; i <= n; i++) {
            if (parts[i] == "name:") name = basename_bench(parts[i+1])
            if (parts[i] == "ns_per_op:") ns = parts[i+1]
            if (parts[i] == "allocs_per_op:") allocs = parts[i+1]
        }
        if (name == "") next
        if (FILENAME == ARGV[1]) {
            # keep the first (usually best-warmed) record per name
            if (!(name in old_ns)) { old_ns[name] = ns; old_al[name] = allocs }
        } else {
            if (!(name in new_ns)) { new_ns[name] = ns; new_al[name] = allocs }
            order[++cnt] = name
        }
    }
    END {
        printf "%-55s %12s %12s %8s %10s %10s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta"
        for (i = 1; i <= cnt; i++) {
            name = order[i]
            if (seen[name]++) continue
            if (!(name in old_ns)) { printf "%-55s %12s %12s %8s\n", name, "-", new_ns[name], "new"; continue }
            dns = "n/a"
            if (old_ns[name] + 0 > 0) dns = sprintf("%+.1f%%", 100 * (new_ns[name] - old_ns[name]) / old_ns[name])
            dal = "n/a"
            if (old_al[name] != "null" && new_al[name] != "null" && old_al[name] + 0 > 0)
                dal = sprintf("%+.1f%%", 100 * (new_al[name] - old_al[name]) / old_al[name])
            else if (old_al[name] == new_al[name]) dal = "0.0%"
            printf "%-55s %12s %12s %8s %10s %10s %8s\n", name, old_ns[name], new_ns[name], dns, old_al[name], new_al[name], dal
        }
    }
    ' "$OLD" "$NEW"
}

if [ "${1:-}" = "compare" ]; then
    [ $# -eq 3 ] || { echo "usage: scripts/bench.sh compare OLD.json NEW.json" >&2; exit 2; }
    compare "$2" "$3"
    exit 0
fi

REGEX="${1:-Table1|Table2|FalsePositiveScan|AnalyzeFrame|Decode$|DecodeCached|Lift|TemplateMatch|EngineThroughput|EngineVerdictCache|Correlator}"
COUNT="${2:-5}"
DATE="$(date -u +%Y%m%d)"
BASE="BENCH_${DATE}"
if [ -e "${BASE}.json" ] || [ -e "${BASE}.txt" ]; then
    i=2
    while [ -e "${BASE}.${i}.json" ] || [ -e "${BASE}.${i}.txt" ]; do
        i=$((i + 1))
    done
    BASE="${BASE}.${i}"
fi
TXT="${BASE}.txt"
JSON="${BASE}.json"

go test -run '^$' -bench "$REGEX" -benchmem -count="$COUNT" | tee "$TXT"

awk '
BEGIN { print "[" }
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    bytes = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, iters, ns, bytes, allocs
}
END { if (n) printf "\n"; print "]" }
' "$TXT" > "$JSON"

echo "wrote $TXT and $JSON" >&2
