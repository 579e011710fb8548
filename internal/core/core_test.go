package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"diestack/internal/obs"
	"diestack/internal/workload"
)

// Tests run at reduced workload scale and coarse thermal grids; the
// bench harness (bench_test.go at the repo root) runs reference scale.
const (
	testScale = 0.15
	testGrid  = 32
)

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
	b, _ := workload.ByName("gauss")
	base, err := RunMemoryPerf(context.Background(), RunSpec{Seed: 1, Scale: 1.0}, Planar4MB, b)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunMemoryPerf(context.Background(), RunSpec{Seed: 1, Scale: 1.0}, Stacked32MB, b)
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

func TestHeadlineClaims(t *testing.T) {
	// The paper's abstract claims, at reference workload scale: a 32 MB
	// stacked DRAM cache reduces average CPMA substantially with a
	// large peak reduction, and cuts off-die traffic by a factor of
	// ~2-4x.
	if testing.Short() {
		t.Skip("reference-scale Figure 5 sweep is slow")
	}
	res, err := RunFigure5(context.Background(), RunSpec{Seed: 1, Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Headline()
	// Paper: 13% average. Our synthetic traces are more L2-intensive
	// than the originals, so the cache-resident benchmarks pay a mild
	// DRAM-latency penalty that dilutes the average (see
	// EXPERIMENTS.md); the aggregate must still be clearly positive.
	if h.AvgCPMAReductionPct < 5 {
		t.Errorf("average CPMA reduction %.1f%%, paper reports 13%%", h.AvgCPMAReductionPct)
	}
	if h.MaxCPMAReductionPct < 35 {
		t.Errorf("max CPMA reduction %.1f%%, paper reports ~55%%", h.MaxCPMAReductionPct)
	}
	if h.TrafficReductionFactor < 1.8 {
		t.Errorf("traffic reduction %.2fx, paper reports ~3x", h.TrafficReductionFactor)
	}
	if h.BusPowerSavingW <= 0 {
		t.Errorf("bus power saving %.3f W, paper reports ~0.5 W", h.BusPowerSavingW)
	}
	// The responsive benchmarks respond; the resident ones stay flat.
	baseIdx, bigIdx := 0, 2
	for i, row := range res.Rows {
		b, _ := workload.ByName(res.Benchmarks[i])
		red := (1 - row[bigIdx].CPMA/row[baseIdx].CPMA) * 100
		if !b.FitsIn4MB && red < 5 {
			t.Errorf("%s should respond to capacity, reduction %.1f%%", b.Name, red)
		}
	}
}

func TestRunFigure8Ordering(t *testing.T) {
	rows, err := RunFigure8(context.Background(), RunSpec{Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byOpt := map[MemoryOption]MemoryThermal{}
	for _, r := range rows {
		byOpt[r.Option] = r
		if r.PeakC < 50 || r.PeakC > 130 {
			t.Errorf("%v peak %.1f implausible", r.Option, r.PeakC)
		}
	}
	// Figure 8(a): 12MB SRAM is the hottest; 32MB DRAM is nearly
	// baseline-neutral; 64MB sits between.
	if !(byOpt[Stacked12MB].PeakC > byOpt[Stacked64MB].PeakC &&
		byOpt[Stacked64MB].PeakC > byOpt[Stacked32MB].PeakC) {
		t.Errorf("Figure 8 ordering wrong: %+v", rows)
	}
	if d := byOpt[Stacked32MB].PeakC - byOpt[Planar4MB].PeakC; math.Abs(d) > 2.5 {
		t.Errorf("32MB delta %.2f degC, paper reports +0.08", d)
	}
	// Figure 7 powers.
	if math.Abs(byOpt[Stacked12MB].TotalPowerW-106) > 0.01 {
		t.Errorf("12MB power %.2f, want 106", byOpt[Stacked12MB].TotalPowerW)
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

func TestFigure11Shape(t *testing.T) {
	rows, err := RunFigure11(context.Background(), RunSpec{Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, three, worst := rows[0], rows[1], rows[2]
	// Figure 11 orderings: baseline < 3D < worst case, with the 3D rise
	// far smaller than the worst case's.
	if !(base.PeakC < three.PeakC && three.PeakC < worst.PeakC) {
		t.Fatalf("ordering wrong: %.1f / %.1f / %.1f", base.PeakC, three.PeakC, worst.PeakC)
	}
	if worst.PeakC-base.PeakC < 2*(three.PeakC-base.PeakC) {
		t.Errorf("worst-case rise should dwarf the tuned 3D rise: %+v", rows)
	}
	// Density ratios: ~1.3x tuned, ~2x worst (paper).
	if three.DensityRatio < 1.1 || three.DensityRatio > 1.5 {
		t.Errorf("3D density ratio %.2f, want ~1.3", three.DensityRatio)
	}
	if math.Abs(worst.DensityRatio-2) > 0.15 {
		t.Errorf("worst density ratio %.2f, want 2", worst.DensityRatio)
	}
	// Power: 3D saves 15%.
	if math.Abs(three.TotalPowerW-147*0.85) > 0.5 {
		t.Errorf("3D power %.1f, want ~125", three.TotalPowerW)
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

func TestTable4Totals(t *testing.T) {
	t4, err := RunTable4(context.Background(), RunSpec{Seed: 1}, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 10 {
		t.Fatalf("rows = %d", len(t4.Rows))
	}
	if t4.TotalGainPct < 10 || t4.TotalGainPct > 20 {
		t.Errorf("total gain %.1f%%, paper ~15%%", t4.TotalGainPct)
	}
	if t4.StagesEliminatedPct < 20 || t4.StagesEliminatedPct > 30 {
		t.Errorf("stages eliminated %.1f%%, paper ~25%%", t4.StagesEliminatedPct)
	}
}

func TestTable5Rows(t *testing.T) {
	rows, err := RunTable5(context.Background(), RunSpec{Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Table 5 anchor values.
	byName := map[string]float64{}
	perf := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.PowerW
		perf[r.Name] = r.PerfPct
	}
	if math.Abs(byName["Baseline"]-147) > 0.01 {
		t.Errorf("baseline power %.1f", byName["Baseline"])
	}
	if math.Abs(byName["Same Freq."]-124.95) > 0.01 {
		t.Errorf("same-freq power %.1f, want 125", byName["Same Freq."])
	}
	// Same Temp: paper reports 97.3 W (66%), +8% perf. Our thermal
	// model's deltas differ slightly; accept the right region.
	if byName["Same Temp"] < 80 || byName["Same Temp"] > 120 {
		t.Errorf("same-temp power %.1f, paper ~97", byName["Same Temp"])
	}
	if perf["Same Temp"] < 102 || perf["Same Temp"] > 113 {
		t.Errorf("same-temp perf %.1f%%, paper ~108%%", perf["Same Temp"])
	}
	if math.Abs(perf["Same Perf."]-100) > 1e-6 {
		t.Errorf("same-perf perf %.1f", perf["Same Perf."])
	}
	if byName["Same Perf."] < 60 || byName["Same Perf."] > 75 {
		t.Errorf("same-perf power %.1f, paper 68.2", byName["Same Perf."])
	}
}

func TestFigure3Sensitivity(t *testing.T) {
	ks := []float64{60, 12, 3}
	cu, err := RunFigure3(context.Background(), RunSpec{Grid: testGrid}, SweepCuMetal, ks)
	if err != nil {
		t.Fatal(err)
	}
	bond, err := RunFigure3(context.Background(), RunSpec{Grid: testGrid}, SweepBond, ks)
	if err != nil {
		t.Fatal(err)
	}
	// Peak rises as conductivity falls, for both layers.
	if !(cu[2].PeakC > cu[0].PeakC) {
		t.Errorf("Cu sweep not monotone: %+v", cu)
	}
	if !(bond[2].PeakC > bond[0].PeakC) {
		t.Errorf("bond sweep not monotone: %+v", bond)
	}
	// Figure 3: the metal layer has the larger temperature impact.
	cuRise := cu[2].PeakC - cu[0].PeakC
	bondRise := bond[2].PeakC - bond[0].PeakC
	if cuRise <= bondRise {
		t.Errorf("Cu metal rise %.2f should exceed bond rise %.2f", cuRise, bondRise)
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
	if peakT < 60 || peakT > 110 {
		t.Errorf("peak %.1f implausible", peakT)
	}
}
