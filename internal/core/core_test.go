package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"diestack/internal/obs"
)

// Thermal tests run on a coarse grid; the bench harness (bench_test.go
// at the repo root) runs the default one.
const testGrid = 32

func TestMemoryOptionBasics(t *testing.T) {
	if len(MemoryOptions()) != 4 {
		t.Fatal("want 4 memory options")
	}
	caps := []int{4, 12, 32, 64}
	names := []string{"2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB"}
	for i, o := range MemoryOptions() {
		if o.CapacityMB() != caps[i] {
			t.Errorf("%v capacity = %d", o, o.CapacityMB())
		}
		if o.String() != names[i] {
			t.Errorf("option %d name %q, want %q", i, o.String(), names[i])
		}
		if _, err := o.HierarchyConfig(); err != nil {
			t.Errorf("%v: %v", o, err)
		}
		fp, err := o.Floorplan()
		if err != nil {
			t.Errorf("%v: %v", o, err)
		}
		if err := fp.Validate(); err != nil {
			t.Errorf("%v floorplan: %v", o, err)
		}
	}
	bad := MemoryOption(9)
	if _, err := bad.HierarchyConfig(); err == nil {
		t.Error("bad option config accepted")
	}
	if _, err := bad.Floorplan(); err == nil {
		t.Error("bad option floorplan accepted")
	}
	if !strings.Contains(bad.String(), "9") {
		t.Error("bad option name")
	}
}

func TestRunMemoryPerf(t *testing.T) {
	// Reference scale: capacity response requires the real footprint
	// (a scaled-down gauss fits the 4 MB baseline and shows nothing).
	spec := RunSpec{Seed: 1, Scale: 1.0}
	base, err := ExperimentValue[MemoryPerf](context.Background(), "memory-perf", spec,
		&MemoryPerfParams{CapacityMB: 4, Benchmark: "gauss"})
	if err != nil {
		t.Fatal(err)
	}
	big, err := ExperimentValue[MemoryPerf](context.Background(), "memory-perf", spec,
		&MemoryPerfParams{CapacityMB: 32, Benchmark: "gauss"})
	if err != nil {
		t.Fatal(err)
	}
	if big.CPMA >= base.CPMA {
		t.Errorf("gauss: 32MB CPMA %.3f !< 4MB %.3f", big.CPMA, base.CPMA)
	}
	if big.OffDieBytes >= base.OffDieBytes {
		t.Errorf("gauss: 32MB traffic %d !< 4MB %d", big.OffDieBytes, base.OffDieBytes)
	}
	if base.BusPowerW <= 0 || big.Benchmark != "gauss" || big.Option != Stacked32MB {
		t.Errorf("metadata wrong: %+v", big)
	}
}

func TestFigure5SmallScale(t *testing.T) {
	res, err := RunFigure5(context.Background(), RunSpec{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 12 || len(res.Rows) != 12 {
		t.Fatalf("got %d benchmarks", len(res.Benchmarks))
	}
	for i, row := range res.Rows {
		if len(row) != 4 {
			t.Fatalf("row %d has %d options", i, len(row))
		}
		for _, p := range row {
			if p.CPMA <= 0 || p.Refs == 0 {
				t.Errorf("%s/%v: empty result %+v", p.Benchmark, p.Option, p)
			}
		}
	}
	h := res.Headline()
	// At tiny scale footprints shrink, so only sanity-check the
	// aggregate structure.
	if h.TrafficReductionFactor <= 0 {
		t.Errorf("headline: %+v", h)
	}
}

// TestHeadlineNoImprovement: when no benchmark gains from the 32 MB
// stack, the peak is the least bad one, named, not a zero with no name.
func TestHeadlineNoImprovement(t *testing.T) {
	row := func(name string, base, big float64) []MemoryPerf {
		return []MemoryPerf{{Benchmark: name, CPMA: base}, {Benchmark: name, CPMA: big}}
	}
	res := &Figure5Result{
		Benchmarks: []string{"a", "b"},
		Options:    []MemoryOption{Planar4MB, Stacked32MB},
		Rows:       [][]MemoryPerf{row("a", 1, 1.5), row("b", 1, 1.25)},
	}
	h := res.Headline()
	if h.MaxReductionBenchmark != "b" || h.MaxCPMAReductionPct != -25 {
		t.Fatalf("peak %.1f%% on %q, want -25%% on b", h.MaxCPMAReductionPct, h.MaxReductionBenchmark)
	}
}

func TestLogicOptionBasics(t *testing.T) {
	if len(LogicOptions()) != 3 {
		t.Fatal("want 3 logic options")
	}
	for _, o := range LogicOptions() {
		fp, err := o.Floorplan()
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.Validate(); err != nil {
			t.Errorf("%v: %v", o, err)
		}
	}
	if _, err := LogicOption(7).Floorplan(); err == nil {
		t.Error("bad logic option accepted")
	}
}

// TestGridConvergence pins the default grid's discretization error:
// each Figure 8 and Figure 11 stack's peak at grid 64 (the default)
// and at grid 96. E1's Figure 3 bond sweep moves the peak by 7.3 °C,
// so both bounds sit well below the smallest signal a figure reads.
// Figure 11's logic stacks resolve their small hot blocks more slowly
// than Figure 8's memory stacks: the worst-case fold's peak still
// moves by about 0.8 °C between the two grids (EXPERIMENTS.md).
func TestGridConvergence(t *testing.T) {
	ctx := context.Background()
	check := func(name string, bound float64, peak func(grid int) (float64, error)) {
		p64, err := peak(64)
		if err != nil {
			t.Fatal(err)
		}
		p96, err := peak(96)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(p64 - p96); d > bound {
			t.Errorf("%s: peak %.4f °C at grid 64, %.4f at grid 96: |diff| %.4f over %.2f", name, p64, p96, d, bound)
		}
	}
	for _, o := range MemoryOptions() {
		check("Figure 8 "+o.String(), 0.05, func(grid int) (float64, error) {
			r, err := RunMemoryThermal(ctx, RunSpec{Grid: grid}, o)
			return r.PeakC, err
		})
	}
	for _, o := range LogicOptions() {
		check("Figure 11 "+o.String(), 1.0, func(grid int) (float64, error) {
			r, err := RunLogicThermal(ctx, RunSpec{Grid: grid}, o)
			return r.PeakC, err
		})
	}
}

func TestFigure3BadInput(t *testing.T) {
	if _, err := RunFigure3(context.Background(), RunSpec{Grid: testGrid}, SweepCuMetal, []float64{-1}); err == nil {
		t.Error("negative conductivity accepted")
	}
	if _, err := RunFigure3(context.Background(), RunSpec{Grid: testGrid}, SweepLayer(5), []float64{10}); err == nil {
		t.Error("bad layer accepted")
	}
	if !strings.Contains(SweepLayer(5).String(), "5") {
		t.Error("bad layer name")
	}
	if SweepCuMetal.String() != "Cu Metal Layers" || SweepBond.String() != "Bonding Layer" {
		t.Error("sweep layer names wrong")
	}
}

// TestFigure3ChecksEveryPointFirst: a bad point at the end of the
// sweep is refused before any solve runs, not after the solves of the
// points ahead of it.
func TestFigure3ChecksEveryPointFirst(t *testing.T) {
	reg := obs.NewRegistry()
	spec := RunSpec{Grid: 16, Obs: reg}
	if _, err := RunFigure3(context.Background(), spec, SweepBond, []float64{60, 12, 0}); err == nil {
		t.Fatal("zero conductivity accepted")
	}
	if n := reg.Counter("thermal_solves").Value(); n != 0 {
		t.Fatalf("%d thermal solves ran before the bad point was refused, want 0", n)
	}
}

func TestFigure6Maps(t *testing.T) {
	pd, tm, err := Figure6Maps(context.Background(), RunSpec{Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd) != testGrid || len(tm) != testGrid {
		t.Fatalf("map sizes %dx%d", len(pd), len(tm))
	}
	// The hottest cell of the temperature map must lie where power
	// density is high (the cores), not in the cache half.
	var peakT float64
	var px, py int
	for y := range tm {
		for x := range tm[y] {
			if tm[y][x] > peakT {
				peakT, px, py = tm[y][x], x, y
			}
		}
	}
	if pd[py][px] <= 0 {
		t.Errorf("temperature peak at (%d,%d) has no power", px, py)
	}
}
