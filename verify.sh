#!/bin/sh
# verify.sh — the repo's full verification gate: static analysis,
# build, and race-enabled tests. Run before every push.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
test -z "$(gofmt -l .)" || {
    echo "verify: gofmt needed on:" >&2
    gofmt -l . >&2
    exit 1
}

echo "== go vet =="
# Besides the standard checks, vet's copylocks is what catches a copied
# sync/atomic or sync.Mutex value (an obs counter, gauge or histogram,
# or a Figure 5 trace's replay count, read by value).
go vet ./...

echo "== stacklint =="
# The repo's own analyzer suite: context-first entry points (ctxfirst),
# deterministic simulation packages (determinism) and a stable canon
# wire surface (wirestable), each catching a defect no test, vet or
# -race run catches. Lock discipline and goroutine lifetimes are
# checked at run time instead: every lock is released by defer, and the
# race steps below run the goroutine-count and parked-solve tests.
# TestAnalyzerFixtures fails if an analyzer drops out of the suite.
go run ./cmd/stacklint ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
# Every go test below but the fuzz runs sets -timeout 5m: a lock defect
# then fails its package in 5 minutes, not the default 10. The slowest
# package, internal/core, takes about 72 s in the fan-out race step.
go test -race -timeout 5m ./...

echo "== solver crew race =="
# The thermal solver splits each large multigrid level across a crew of
# helpers sized by GOMAXPROCS. -cpu 1,2,4 races the crew at two workers
# (one helper, the crew a 2-vCPU host runs) and at four even on a
# one-core runner, and checks the GOMAXPROCS 1 serial path.
# The column-class table tests run here too: every band reads the
# classes that beginSolve factorizes. So do the WorkspaceCache tests:
# a solve parked mid-run must block neither a solve of another stack
# shape nor one of its own, and concurrent solves share the pool.
go test -race -timeout 5m -cpu 1,2,4 -run 'Schedule|Crew|VCycleAllocs|ColumnClasses|Footprint|WorkspaceCache' ./internal/thermal/

echo "== fan-out race =="
# Figure 5 streams the next trace through the L1 filter while the
# current one replays, generating it into the emitter blocks of the
# trace before and filtering it into the log of the trace two before,
# which that trace's last replay hands back; Table 4 runs its twelve
# configurations side by side, and the campaign harness runs its jobs,
# all through internal/fanout; each Figure 5 option's replays share one
# simulator slot, Reset between uses. -cpu 1,2,4 races the trace
# pipeline, the streamed filter and its log reuse (FilterStreamReuse),
# the simulator reuse and the fan-out at two and four workers even on
# a one-core runner, and checks the GOMAXPROCS 1 serial path. The
# goroutine-count checks run here too: ForEach's
# workers, the obs exporter and progress loops, the stackd handler
# (singleflight, shedding, drain) and stackd's stalled-client timeouts
# must leave no goroutine behind.
go test -race -timeout 5m -cpu 1,2,4 \
    -run 'Figure5|Table4|Campaign|ForEach|Generate|FilterStream|Reset|CloseStops|Singleflight|Shed|Drain|StalledClients' \
    ./internal/core/ ./internal/uarch/synth/ ./internal/workload/ ./internal/fanout/ \
    ./internal/harness/ ./internal/memhier/ ./internal/obs/ ./internal/serve/ ./cmd/stackd/

echo "== fuzz =="
# Each of the three decoders of outside bytes fuzzed briefly beyond its
# committed seed corpus (testdata/fuzz of its package): request bodies
# against every catalog experiment (a stackd POST), a "campaign"
# request body on through its decode-and-expand path, and binary trace
# files. A crasher lands in testdata/fuzz; fix it and keep it as a
# seed.
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz '^FuzzCampaignPayload$' -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz '^FuzzTraceReader$' -fuzztime 10s ./internal/trace/

echo "== benchmark module tests =="
# bench/ is a nested module, so the root go test ./... above does not
# reach it. Its tests include the traced-vs-catalog drift check: a
# thermal change that breaks the traced layer-by-layer composition
# fails here.
(cd bench && go test -timeout 5m ./...)

echo "== benchmark smoke =="
# One iteration of every internal benchmark: catches benchmarks that
# no longer compile or crash without paying for stable timings. Then
# one iteration of each root-package figure benchmark that prints
# through a core renderer, leaving out Figure 5 and Table 4, which
# replay paper-scale workloads and run in bench.sh.
go test -timeout 5m -run '^$' -bench . -benchtime 1x ./internal/... >/dev/null
go test -timeout 5m -run '^$' -bench 'Table2|Table3|Figure3|Figure6|Figure7|Figure8|Figure11|Table5' \
    -benchtime 1x . >/dev/null

echo "== multigrid solver smoke =="
# One short default solve through the CLI: the metrics snapshot must
# carry the thermal_mg_* family (V-cycle and per-level sweep counters)
# alongside the regular thermal family, proving the multigrid schedule
# ran.
mgtmp=$(mktemp -d)
trap 'rm -rf "$mgtmp"' EXIT
go run ./cmd/diestack fig6 -grid 32 \
    -metrics-out "$mgtmp/mg-metrics.jsonl" >/dev/null
grep -q thermal_mg_cycles "$mgtmp/mg-metrics.jsonl"
go run ./internal/obs/cmd/checksnap -families thermal,thermal_mg "$mgtmp/mg-metrics.jsonl"
rm -rf "$mgtmp"

echo "== supervised campaign smoke =="
# A small supervised sweep: every job must finish OK, the manifest must
# be written, and the -metrics-out JSONL must carry all five metric
# families — harness end to end from the CLI, observability included.
# The replays publish their statistics when they return, so the final
# snapshot must hold nonzero memhier and main-memory counts.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/diestack campaign -benchmarks '["gauss"]' -seed 1 -scale 0.05 -grid 16 \
    -jobs 4 -manifest "$tmpdir/manifest.json" \
    -metrics-out "$tmpdir/metrics.jsonl"
grep -q '"status": "ok"' "$tmpdir/manifest.json"
test -s "$tmpdir/metrics.jsonl"
go run ./internal/obs/cmd/checksnap -min memhier_records=1 -min dram_mem_accesses=1 \
    "$tmpdir/metrics.jsonl"

echo "== stackd service smoke =="
# The experiment service end to end: POST the same spec twice (the
# second must be served from the result cache), the same spec with
# another seed (a result-cache miss that must answer the same bytes
# from a pooled thermal workspace), and a concurrent identical cold
# pair (singleflight must merge the twin into the leader's solve), then
# drain with SIGTERM. The final metrics snapshot must carry the
# stackd_* family with the hit, merge and workspace-reuse counters
# proving each path fired.
go build -o "$tmpdir/stackd" ./cmd/stackd
sport=$((21000 + $$ % 20000))
"$tmpdir/stackd" -addr "127.0.0.1:$sport" \
    -metrics-out "$tmpdir/stackd-metrics.jsonl" 2>"$tmpdir/stackd.log" &
stackd=$!
trap 'kill "$stackd" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$sport/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/memory-thermal" \
    -d '{"spec":{"grid":16},"params":{"capacity_mb":32}}' >"$tmpdir/stackd-a.json"
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/memory-thermal" \
    -d '{"spec":{"grid":16},"params":{"capacity_mb":32}}' >"$tmpdir/stackd-b.json"
cmp "$tmpdir/stackd-a.json" "$tmpdir/stackd-b.json"
curl -sf -D "$tmpdir/stackd-seed.hdr" -X POST "http://127.0.0.1:$sport/v1/experiments/memory-thermal" \
    -d '{"spec":{"grid":16,"seed":2},"params":{"capacity_mb":32}}' >"$tmpdir/stackd-seed.json"
grep -qi '^X-Stackd-Cache: miss' "$tmpdir/stackd-seed.hdr" || {
    echo "verify: memory-thermal with a new seed was not a cache miss" >&2
    exit 1
}
cmp "$tmpdir/stackd-a.json" "$tmpdir/stackd-seed.json"
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/fig6" \
    -d '{"spec":{"grid":48}}' >"$tmpdir/stackd-c.json" &
pair1=$!
curl -sf -X POST "http://127.0.0.1:$sport/v1/experiments/fig6" \
    -d '{"spec":{"grid":48}}' >"$tmpdir/stackd-d.json" &
pair2=$!
wait "$pair1"
wait "$pair2"
cmp "$tmpdir/stackd-c.json" "$tmpdir/stackd-d.json"
# A body whose params would size a run past the wire bounds is refused
# at decode with 400, before any work; the service stays up.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$sport/v1/experiments/table4" \
    -d '{"params":{"instructions":1000000000000}}')
test "$code" = 400 || {
    echo "verify: over-bound table4 body got HTTP $code, want 400" >&2
    exit 1
}
curl -sf "http://127.0.0.1:$sport/healthz" >/dev/null
kill -TERM "$stackd"
wait "$stackd"
go run ./internal/obs/cmd/checksnap -families stackd \
    -min stackd_cache_hits=1 -min stackd_inflight_merged=1 \
    -min thermal_ws_reused=1 "$tmpdir/stackd-metrics.jsonl"

echo "verify: OK"
