// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each prints the same rows or series the paper
// reports (once, on the first iteration) and reports its headline
// number as a benchmark metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Shapes — who wins, by roughly what
// factor, where crossovers fall — are the reproduction target; see
// EXPERIMENTS.md for measured-vs-paper values.
package diestack_test

import (
	"context"
	"fmt"
	"testing"

	"diestack/internal/core"
	"diestack/internal/memhier"
	"diestack/internal/thermal"
)

// printOnce gates table output to the first benchmark iteration.
func printOnce(b *testing.B, i int, f func()) {
	b.Helper()
	if i == 0 {
		f()
	}
}

// BenchmarkTable2ThermalConstants prints the material table the
// thermal model is built from (Table 2).
func BenchmarkTable2ThermalConstants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printOnce(b, i, func() {
			fmt.Printf("\nTable 2 — thermal constants:\n")
			fmt.Printf("  Si #1 %g um, Si #2 %g um, Si k=%g W/mK\n",
				thermal.Si1Thickness*1e6, thermal.Si2Thickness*1e6, thermal.Silicon.Conductivity)
			fmt.Printf("  Cu metal %g um k=%g, Al metal %g um k=%g, bond %g um k=%g, ambient %g C\n",
				thermal.CuMetalThickness*1e6, thermal.CuMetal.Conductivity,
				thermal.AlMetalThickness*1e6, thermal.AlMetal.Conductivity,
				thermal.BondThickness*1e6, thermal.BondLayer.Conductivity, thermal.AmbientC)
		})
	}
}

// BenchmarkTable3MachineParameters prints the simulated machine
// (Table 3).
func BenchmarkTable3MachineParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printOnce(b, i, func() {
			fmt.Printf("\nTable 3 — machine parameters:\n")
			for _, o := range core.MemoryOptions() {
				cfg, err := o.HierarchyConfig()
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("  %-8s %2d MB %s L2, %d-way, line %dB, tag %d cyc\n",
					o, o.CapacityMB(), cfg.L2Type, cfg.L2.Ways, cfg.L2.LineBytes, cfg.L2.Latency)
			}
			base, _ := core.Planar4MB.HierarchyConfig()
			fmt.Printf("  bank delays: open %d / precharge %d / read %d; bus %.0f GB/s\n",
				base.Memory.Timing.PageOpen, base.Memory.Timing.Precharge,
				base.Memory.Timing.Read, base.BusBytesPerCycle*base.CoreGHz)
		})
	}
}

// BenchmarkFigure3ThermalSensitivity regenerates the conductivity
// sensitivity curves (Figure 3).
func BenchmarkFigure3ThermalSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cu, err := core.RunFigure3(context.Background(), core.RunSpec{Grid: 48}, core.SweepCuMetal, nil)
		if err != nil {
			b.Fatal(err)
		}
		bond, err := core.RunFigure3(context.Background(), core.RunSpec{Grid: 48}, core.SweepBond, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cu[len(cu)-1].PeakC-cu[0].PeakC, "CuRiseC")
		b.ReportMetric(bond[len(bond)-1].PeakC-bond[0].PeakC, "BondRiseC")
		printOnce(b, i, func() {
			fmt.Printf("\nFigure 3 — peak temperature vs conductivity (60 -> 3 W/mK):\n")
			fmt.Printf("  %-18s", "k (W/mK)")
			for _, p := range cu {
				fmt.Printf("%8.0f", p.ConductivityWmK)
			}
			fmt.Printf("\n  %-18s", "Cu metal layers")
			for _, p := range cu {
				fmt.Printf("%8.2f", p.PeakC)
			}
			fmt.Printf("\n  %-18s", "Bonding layer")
			for _, p := range bond {
				fmt.Printf("%8.2f", p.PeakC)
			}
			fmt.Println()
		})
	}
}

// BenchmarkFigure5MemoryStacking regenerates the CPMA/bandwidth sweep
// over the twelve RMS benchmarks and four cache configurations
// (Figure 5), at reference workload scale.
func BenchmarkFigure5MemoryStacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFigure5(context.Background(), core.RunSpec{Seed: 1, Scale: 1.0})
		if err != nil {
			b.Fatal(err)
		}
		h := res.Headline()
		b.ReportMetric(h.AvgCPMAReductionPct, "avgCPMAred%")
		b.ReportMetric(h.MaxCPMAReductionPct, "maxCPMAred%")
		b.ReportMetric(h.TrafficReductionFactor, "trafficRedX")
		printOnce(b, i, func() {
			fmt.Printf("\nFigure 5 — CPMA (and BW GB/s) per benchmark, capacities 4/12/32/64 MB:\n")
			for r, name := range res.Benchmarks {
				fmt.Printf("  %-8s", name)
				for _, p := range res.Rows[r] {
					fmt.Printf("  %6.3f (%5.2f)", p.CPMA, p.BandwidthGBs)
				}
				fmt.Println()
			}
			fmt.Printf("  headline: avg CPMA reduction %.1f%% (paper 13%%), max %.1f%% on %s (paper ~55%%), traffic /%.1f (paper ~3x), bus -%.2f W (paper ~0.5 W)\n",
				h.AvgCPMAReductionPct, h.MaxCPMAReductionPct, h.MaxReductionBenchmark,
				h.TrafficReductionFactor, h.BusPowerSavingW)
		})
	}
}

// BenchmarkFigure6BaselineThermal regenerates the planar power and
// temperature maps (Figure 6).
func BenchmarkFigure6BaselineThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pd, tm, err := core.Figure6Maps(context.Background(), core.RunSpec{Grid: 64})
		if err != nil {
			b.Fatal(err)
		}
		peak, low := -1e9, 1e9
		for _, row := range tm {
			for _, v := range row {
				if v > peak {
					peak = v
				}
				if v < low {
					low = v
				}
			}
		}
		b.ReportMetric(peak, "peakC")
		var maxPD float64
		for _, row := range pd {
			for _, v := range row {
				if v > maxPD {
					maxPD = v
				}
			}
		}
		printOnce(b, i, func() {
			fmt.Printf("\nFigure 6 — baseline planar maps: hottest %.2f degC (paper 88.35), coolest %.2f (paper 59), peak density %.2f W/mm2\n",
				peak, low, maxPD/1e6)
		})
	}
}

// BenchmarkFigure7StackPower prints the four configurations' power
// budgets (Figure 7).
func BenchmarkFigure7StackPower(b *testing.B) {
	paper := map[core.MemoryOption]float64{
		core.Planar4MB: 92, core.Stacked12MB: 106,
		core.Stacked32MB: 91.6, core.Stacked64MB: 98.2,
	}
	for i := 0; i < b.N; i++ {
		printOnce(b, i, func() {
			fmt.Printf("\nFigure 7 — power budgets:\n")
			for _, o := range core.MemoryOptions() {
				fp, err := o.Floorplan()
				if err != nil {
					b.Fatal(err)
				}
				fmt.Printf("  %-8s %6.1f W (paper %.1f)\n", o, fp.TotalPower(), paper[o])
			}
		})
	}
}

// BenchmarkFigure8StackThermal regenerates the memory-stacking peak
// temperatures (Figure 8a).
func BenchmarkFigure8StackThermal(b *testing.B) {
	paper := map[core.MemoryOption]float64{
		core.Planar4MB: 88.35, core.Stacked12MB: 92.85,
		core.Stacked32MB: 88.43, core.Stacked64MB: 90.27,
	}
	for i := 0; i < b.N; i++ {
		rows, err := core.RunFigure8(context.Background(), core.RunSpec{Grid: 64})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Option == core.Stacked32MB {
				b.ReportMetric(r.PeakC, "peak32MBC")
			}
		}
		printOnce(b, i, func() {
			fmt.Printf("\nFigure 8(a) — peak temperatures:\n")
			for _, r := range rows {
				fmt.Printf("  %-8s %6.2f degC (paper %.2f)\n", r.Option, r.PeakC, paper[r.Option])
			}
		})
	}
}

// BenchmarkTable4PipelineGains regenerates the per-functionality
// pipeline elimination gains (Table 4).
func BenchmarkTable4PipelineGains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4, err := core.RunTable4(context.Background(), core.RunSpec{Seed: 1}, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t4.TotalGainPct, "totalGain%")
		b.ReportMetric(t4.StagesEliminatedPct, "stagesGone%")
		printOnce(b, i, func() {
			fmt.Printf("\nTable 4 — Logic+Logic pipeline gains:\n")
			for _, r := range t4.Rows {
				fmt.Printf("  %-26s %5.1f%% of stages  %+6.2f%% perf (paper ~%.2f%%)\n",
					r.Name, r.StagesPct, r.GainPct, r.PaperGainPct)
			}
			fmt.Printf("  Total: %.1f%% of stages, %+.2f%% perf (paper ~25%% / ~15%%)\n", t4.StagesEliminatedPct, t4.TotalGainPct)
		})
	}
}

// BenchmarkFigure11LogicThermal regenerates the Logic+Logic thermal
// comparison (Figure 11).
func BenchmarkFigure11LogicThermal(b *testing.B) {
	paper := map[core.LogicOption]float64{
		core.LogicPlanar: 98.6, core.Logic3D: 112.5, core.Logic3DWorst: 124.75,
	}
	for i := 0; i < b.N; i++ {
		rows, err := core.RunFigure11(context.Background(), core.RunSpec{Grid: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].PeakC-rows[0].PeakC, "riseC")
		printOnce(b, i, func() {
			fmt.Printf("\nFigure 11 — Logic+Logic peak temperatures:\n")
			for _, r := range rows {
				fmt.Printf("  %-13s %7.2f degC (paper %.2f), %6.1f W, density %.2fx\n",
					r.Option, r.PeakC, paper[r.Option], r.TotalPowerW, r.DensityRatio)
			}
		})
	}
}

// BenchmarkTable5VoltageScaling regenerates the V/f scaling scenarios
// (Table 5).
func BenchmarkTable5VoltageScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunTable5(context.Background(), core.RunSpec{Grid: 64})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "Same Temp" {
				b.ReportMetric(r.PowerPct, "sameTempPwr%")
				b.ReportMetric(r.PerfPct, "sameTempPerf%")
			}
		}
		printOnce(b, i, func() {
			fmt.Printf("\nTable 5 — V/f scaling (paper: Same Temp 66%% power / 108%% perf):\n")
			for _, r := range rows {
				fmt.Printf("  %-11s %6.1f W (%3.0f%%)  perf %3.0f%%  Vcc %.2f  freq %.2f\n",
					r.Name, r.PowerW, r.PowerPct, r.PerfPct, r.Vcc, r.Freq)
			}
		})
	}
}

// BenchmarkHierarchySimulator measures the raw replay throughput of
// the memory hierarchy simulator (references per second), the
// engineering number that bounds every Figure 5 run.
func BenchmarkHierarchySimulator(b *testing.B) {
	cfg, _ := memhier.ConfigByCapacity(32)
	recs := streamTrace(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := memhier.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(context.Background(), sliceStream(recs), memhier.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}
