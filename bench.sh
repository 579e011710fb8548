#!/bin/sh
# bench.sh — run the headline benchmarks with -benchmem and write the
# machine-readable baseline (BENCH_012.json by default): benchmark
# name -> ns/op, allocs/op and bytes/op, plus the headline metrics — the cold and
# warm Solve64 times, the V-cycle, smoother-sweep and restriction
# kernel times on the 3D logic stack (each twice: "serial", one core,
# and "crew", split across the solver's helpers at the run's
# GOMAXPROCS), the steady-state replay allocs/op, the time and bytes
# allocated to generate the svm trace (the largest-footprint RMS
# workload) at reference scale, and the time and megabytes allocated by
# the whole Figure 5 sweep (fig5_s, fig5_mb) and Table 4 (table4_ms,
# table4_mb) at GOMAXPROCS 1 and 2, keyed by GOMAXPROCS: both spread
# their work over the cores, so the pair shows what the second core
# buys. Committed
# baselines from this script are how perf PRs prove their before/after
# claims. The baseline name recorded inside the JSON is derived from
# the output filename, so each capture is self-identifying.
#
# Host parallelism is recorded three ways, because they differ and the
# difference matters when reading multi-core numbers: "nproc" is
# the shell's view of usable CPUs, "num_cpu" is runtime.NumCPU(), and
# "gomaxprocs" is the GOMAXPROCS the benchmarks actually ran at (parsed
# from the go test benchmark-name suffix; earlier baselines recorded
# nproc under this key). The Figure 5 and Table 4 runs set their own
# GOMAXPROCS with -cpu; their results are keyed "<name>-<GOMAXPROCS>".
#
# Usage: ./bench.sh [output.json]
set -eu
cd "$(dirname "$0")"
out=${1:-BENCH_012.json}
baseline=$(basename "$out" .json)
tmp=$(mktemp)
percpu=$(mktemp)
tmpdir=$(mktemp -d)
trap 'rm -f "$tmp" "$percpu"; rm -rf "$tmpdir"' EXIT

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
    -bench 'BenchmarkVCycle64Stack3D$|BenchmarkSmoothSweep64$|BenchmarkRestrict64$' \
    ./internal/thermal/ | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 2s \
    -bench 'BenchmarkReplaySteadyState$' \
    ./internal/memhier/ | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 5x \
    -bench 'BenchmarkGenerateSVM$' \
    ./internal/workload/ | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 2x -cpu 1,2 \
    -bench 'BenchmarkFigure5MemoryStacking$|BenchmarkTable4PipelineGains$' \
    . | tee -a "$percpu"

awk -v nproc="$(nproc)" -v numcpu="$numcpu" -v goversion="$(go env GOVERSION)" -v baseline="$baseline" \
    -v percpu="$percpu" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
# A benchmark that prints splits its line: go test writes the name,
# then what the benchmark prints, then the numbers.
/^Benchmark/ && NF == 1 { pending = $1; next }
pending != "" && /ns\/op/ { $0 = pending " " $0; pending = "" }
/^Benchmark/ {
    name = $1
    # go test appends "-<GOMAXPROCS>" to benchmark names, except at
    # GOMAXPROCS=1 where the suffix is omitted entirely.
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    } else {
        procs = 1
    }
    if (FILENAME == percpu) {
        name = name "-" procs
    } else {
        gomaxprocs = procs
    }
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name] = $i
        if ($(i+1) == "allocs/op") al[name] = $i
        if ($(i+1) == "B/op")      by[name] = $i
    }
    order[++n] = name
}
END {
    # A headline benchmark that failed, was filtered out or whose line
    # did not parse has no ns/op: fail rather than record zeros.
    k = split("BenchmarkSolve64Multigrid BenchmarkWorkspaceResolve64Multigrid " \
        "BenchmarkVCycle64Stack3D/serial BenchmarkVCycle64Stack3D/crew " \
        "BenchmarkSmoothSweep64/serial BenchmarkSmoothSweep64/crew " \
        "BenchmarkRestrict64/serial BenchmarkRestrict64/crew " \
        "BenchmarkReplaySteadyState BenchmarkGenerateSVM " \
        "BenchmarkFigure5MemoryStacking-1 BenchmarkFigure5MemoryStacking-2 " \
        "BenchmarkTable4PipelineGains-1 BenchmarkTable4PipelineGains-2", headline, " ")
    missing = ""
    for (i = 1; i <= k; i++)
        if (!(headline[i] in ns)) missing = missing " " headline[i]
    if (missing != "") {
        printf "bench.sh: no ns/op parsed for%s\n", missing > "/dev/stderr"
        exit 1
    }
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
        printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s}%s\n", \
            name, ns[name], al[name], by[name], (i < n ? "," : "")
    }
    printf "  },\n"
    printf "  \"headline\": {\n"
    printf "    \"solve64_ms\": %.1f,\n", ns["BenchmarkSolve64Multigrid"] / 1e6
    printf "    \"resolve64_ms\": %.1f,\n", ns["BenchmarkWorkspaceResolve64Multigrid"] / 1e6
    printf "    \"vcycle64_stack3d_serial_ms\": %.2f,\n", ns["BenchmarkVCycle64Stack3D/serial"] / 1e6
    printf "    \"vcycle64_stack3d_crew_ms\": %.2f,\n", ns["BenchmarkVCycle64Stack3D/crew"] / 1e6
    printf "    \"smooth_sweep64_serial_ms\": %.2f,\n", ns["BenchmarkSmoothSweep64/serial"] / 1e6
    printf "    \"smooth_sweep64_crew_ms\": %.2f,\n", ns["BenchmarkSmoothSweep64/crew"] / 1e6
    printf "    \"restrict64_serial_ms\": %.2f,\n", ns["BenchmarkRestrict64/serial"] / 1e6
    printf "    \"restrict64_crew_ms\": %.2f,\n", ns["BenchmarkRestrict64/crew"] / 1e6
    printf "    \"replay_steady_state_allocs_per_op\": %s,\n", \
        al["BenchmarkReplaySteadyState"]
    printf "    \"generate_svm_ms\": %.1f,\n", ns["BenchmarkGenerateSVM"] / 1e6
    printf "    \"generate_svm_bytes_per_op\": %s,\n", by["BenchmarkGenerateSVM"]
    printf "    \"fig5_s\": {\"1\": %.2f, \"2\": %.2f},\n", \
        ns["BenchmarkFigure5MemoryStacking-1"] / 1e9, ns["BenchmarkFigure5MemoryStacking-2"] / 1e9
    printf "    \"fig5_mb\": {\"1\": %.1f, \"2\": %.1f},\n", \
        by["BenchmarkFigure5MemoryStacking-1"] / 1048576, by["BenchmarkFigure5MemoryStacking-2"] / 1048576
    printf "    \"table4_ms\": {\"1\": %.0f, \"2\": %.0f},\n", \
        ns["BenchmarkTable4PipelineGains-1"] / 1e6, ns["BenchmarkTable4PipelineGains-2"] / 1e6
    printf "    \"table4_mb\": {\"1\": %.1f, \"2\": %.1f}\n", \
        by["BenchmarkTable4PipelineGains-1"] / 1048576, by["BenchmarkTable4PipelineGains-2"] / 1048576
    printf "  }\n"
    printf "}\n"
}' "$tmp" "$percpu" >"$tmpdir/out.json"
mv "$tmpdir/out.json" "$out"

echo "wrote $out"
