package memhier

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"diestack/internal/fault"
	"diestack/internal/obs"
	"diestack/internal/trace"
)

// pinFaults injects correctable and uncorrectable ECC events and kills
// one bank of the stacked DRAM cache.
var pinFaults = fault.Config{
	Seed: 3, CorrectablePerMAccess: 20000, UncorrectablePerMAccess: 5000,
	DeadBanks: []int{2},
}

// renderMetrics writes a registry's snapshot as sorted text: every
// counter with its value, every histogram with its shape and counts,
// and every span name with how often it ran. Span durations are wall
// time and are left out.
func renderMetrics(reg *obs.Registry) string {
	snap := reg.Snapshot(false)
	var lines []string
	for name, v := range snap.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
	}
	for name, v := range snap.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %g", name, v))
	}
	for name, h := range snap.Histograms {
		lines = append(lines, fmt.Sprintf("histogram %s [%g,%g) %v", name, h.Lo, h.Hi, h.Counts))
	}
	for name, s := range snap.SpanTotals {
		lines = append(lines, fmt.Sprintf("span %s %d", name, s.Count))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// checkMetricsPin compares a registry's rendering with the named file
// under testdata/metrics. On a mismatch the message carries the whole
// rendering, which is the file's new content if the change is meant.
func checkMetricsPin(t *testing.T, name string, reg *obs.Registry) {
	t.Helper()
	path := filepath.Join("testdata", "metrics", name+".txt")
	got := renderMetrics(reg)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: registry differs from %s\ngot:\n%swant:\n%s", name, path, got, want)
	}
}

// TestReplayMetricsPin pins the full registry a replay leaves behind:
// which instruments exist and what they hold. memhier_* and dram_mem_*
// appear whenever a registry is bound, dram_cache_* only with a DRAM
// L2, and fault_* only with injection on. A replay of a filtered log
// leaves the registry a Run leaves; a canceled replay counts the
// records it replayed before the cancellation.
func TestReplayMetricsPin(t *testing.T) {
	const n = 20_000
	ctx := context.Background()
	src := &mixedStream{}
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i], _ = src.Next()
	}
	faulty := StackedDRAMConfig(32)
	faulty.Faults = pinFaults
	eccOnly := BaselineConfig()
	eccOnly.Faults = fault.Config{Seed: 3, CorrectablePerMAccess: 20000}
	canceled, cancel := context.WithCancel(ctx)
	cancel()

	run := func(t *testing.T, ctx context.Context, cfg Config) *obs.Registry {
		t.Helper()
		reg := obs.NewRegistry()
		if _, err := mustSim(t, cfg).Run(ctx, trace.NewSliceStream(recs), RunOptions{Obs: reg}); err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
		return reg
	}
	replay := func(t *testing.T, ctx context.Context, cfg Config) *obs.Registry {
		t.Helper()
		lg, err := FilterL1(context.Background(), cfg, trace.NewSliceStream(recs), nil)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := mustSim(t, cfg).Replay(ctx, lg, reg); err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
		return reg
	}

	checkMetricsPin(t, "baseline-run", run(t, ctx, BaselineConfig()))
	checkMetricsPin(t, "baseline-ecc-run", run(t, ctx, eccOnly))
	checkMetricsPin(t, "dram32-run", run(t, ctx, StackedDRAMConfig(32)))
	checkMetricsPin(t, "dram32-faults-run", run(t, ctx, faulty))
	checkMetricsPin(t, "dram32-faults-run", replay(t, ctx, faulty))
	checkMetricsPin(t, "dram32-faults-canceled", run(t, canceled, faulty))
	checkMetricsPin(t, "dram32-faults-canceled", replay(t, canceled, faulty))
}
