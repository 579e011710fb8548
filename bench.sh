#!/bin/sh
# bench.sh — run the headline benchmarks with -benchmem and write the
# machine-readable baseline (BENCH_006.json by default): benchmark
# name -> ns/op and allocs/op, plus the headline metrics — the cold and
# warm Solve64 times, the V-cycle and smoother-sweep kernel times on the
# 3D logic stack, and the steady-state replay allocs/op. Committed
# baselines from this script are how perf PRs prove their before/after
# claims. The baseline name recorded inside the JSON is derived from
# the output filename, so each capture is self-identifying.
#
# Host parallelism is recorded three ways, because they differ and the
# difference matters when reading multi-core numbers: "nproc" is
# the shell's view of usable CPUs, "num_cpu" is runtime.NumCPU(), and
# "gomaxprocs" is the GOMAXPROCS the benchmarks actually ran at (parsed
# from the go test benchmark-name suffix; earlier baselines recorded
# nproc under this key).
#
# Usage: ./bench.sh [output.json]
set -eu
cd "$(dirname "$0")"
out=${1:-BENCH_006.json}
baseline=$(basename "$out" .json)
tmp=$(mktemp)
tmpdir=$(mktemp -d)
trap 'rm -f "$tmp"; rm -rf "$tmpdir"' EXIT

cat >"$tmpdir/numcpu.go" <<'EOF'
package main

import (
	"fmt"
	"runtime"
)

func main() { fmt.Println(runtime.NumCPU()) }
EOF
numcpu=$(go run "$tmpdir/numcpu.go")

go test -run '^$' -benchmem -benchtime 3x \
    -bench 'BenchmarkSolve32Multigrid$|BenchmarkSolve64Multigrid$|BenchmarkWorkspaceResolve64Multigrid$|BenchmarkTransientStep$' \
    ./internal/thermal/ | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 30x \
    -bench 'BenchmarkVCycle64Stack3D$|BenchmarkSmoothSweep64$' \
    ./internal/thermal/ | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 2s \
    -bench 'BenchmarkReplaySteadyState$' \
    ./internal/memhier/ | tee -a "$tmp"

awk -v nproc="$(nproc)" -v numcpu="$numcpu" -v goversion="$(go env GOVERSION)" -v baseline="$baseline" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    # go test appends "-<GOMAXPROCS>" to benchmark names, except at
    # GOMAXPROCS=1 where the suffix is omitted entirely.
    if (match(name, /-[0-9]+$/)) {
        gomaxprocs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    } else {
        gomaxprocs = 1
    }
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name] = $i
        if ($(i+1) == "allocs/op") al[name] = $i
    }
    order[++n] = name
}
END {
    printf "{\n"
    printf "  \"baseline\": \"%s\",\n", baseline
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %s,\n", nproc
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"results\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, ns[name], al[name], (i < n ? "," : "")
    }
    printf "  },\n"
    printf "  \"headline\": {\n"
    printf "    \"solve64_ms\": %.1f,\n", ns["BenchmarkSolve64Multigrid"] / 1e6
    printf "    \"resolve64_ms\": %.1f,\n", ns["BenchmarkWorkspaceResolve64Multigrid"] / 1e6
    printf "    \"vcycle64_stack3d_ms\": %.2f,\n", ns["BenchmarkVCycle64Stack3D"] / 1e6
    printf "    \"smooth_sweep64_ms\": %.2f,\n", ns["BenchmarkSmoothSweep64"] / 1e6
    printf "    \"replay_steady_state_allocs_per_op\": %s\n", \
        al["BenchmarkReplaySteadyState"]
    printf "  }\n"
    printf "}\n"
}' "$tmp" >"$out"

echo "wrote $out"
