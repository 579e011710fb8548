// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each prints its result through core's renderer,
// the text diestack prints (once, on the first iteration), and reports
// its headline number as a benchmark metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Shapes — who wins, by roughly what
// factor, where crossovers fall — are the reproduction target; see
// EXPERIMENTS.md for measured-vs-paper values.
package diestack_test

import (
	"context"
	"io"
	"os"
	"testing"

	"diestack/internal/core"
	"diestack/internal/memhier"
)

// printOnce gates table output to the first benchmark iteration.
func printOnce(b *testing.B, i int, f func()) {
	b.Helper()
	if i == 0 {
		f()
	}
}

// renderOnce renders to stdout on the first benchmark iteration only,
// after a blank line: go test then prints the benchmark's name on a
// line of its own, which bench.sh's parser pairs with the numbers that
// follow the text.
func renderOnce(b *testing.B, i int, render func(io.Writer) error) {
	b.Helper()
	if i > 0 {
		return
	}
	if _, err := io.WriteString(os.Stdout, "\n"); err != nil {
		b.Fatal(err)
	}
	if err := render(os.Stdout); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2ThermalConstants prints the material table the
// thermal model is built from (Table 2).
func BenchmarkTable2ThermalConstants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderOnce(b, i, core.RenderTable2)
	}
}

// BenchmarkTable3MachineParameters prints the simulated machine
// (Table 3).
func BenchmarkTable3MachineParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderOnce(b, i, core.RenderTable3)
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
		renderOnce(b, i, func(w io.Writer) error {
			if err := core.RenderFigure3(w, core.SweepCuMetal, cu); err != nil {
				return err
			}
			return core.RenderFigure3(w, core.SweepBond, bond)
		})
	}
}

// BenchmarkFigure5MemoryStacking regenerates the CPMA/bandwidth sweep
// over the twelve RMS benchmarks and four cache configurations
// (Figure 5), at reference workload scale.
func BenchmarkFigure5MemoryStacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := core.RunSpec{Seed: 1, Scale: 1.0}
		res, err := core.RunFigure5(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		h := res.Headline()
		b.ReportMetric(h.AvgCPMAReductionPct, "avgCPMAred%")
		b.ReportMetric(h.MaxCPMAReductionPct, "maxCPMAred%")
		b.ReportMetric(h.TrafficReductionFactor, "trafficRedX")
		renderOnce(b, i, func(w io.Writer) error { return core.RenderFigure5(w, res, spec.Scale, nil) })
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
		res := core.Figure6Result{PowerDensity: pd, Temperature: tm}
		_, peak := res.TemperatureRange()
		b.ReportMetric(peak, "peakC")
		renderOnce(b, i, func(w io.Writer) error { return core.RenderFigure6(w, res) })
	}
}

// BenchmarkFigure7StackPower prints the four configurations' power
// budgets (Figure 7).
func BenchmarkFigure7StackPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		renderOnce(b, i, core.RenderFigure7)
	}
}

// BenchmarkFigure8StackThermal regenerates the memory-stacking peak
// temperatures (Figure 8a).
func BenchmarkFigure8StackThermal(b *testing.B) {
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
		renderOnce(b, i, func(w io.Writer) error { return core.RenderFigure8(w, rows) })
	}
}

// BenchmarkTable4PipelineGains regenerates the per-functionality
// pipeline elimination gains (Table 4).
func BenchmarkTable4PipelineGains(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		t4, err := core.RunTable4(ctx, core.RunSpec{Seed: 1}, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t4.TotalGainPct, "totalGain%")
		b.ReportMetric(t4.StagesEliminatedPct, "stagesGone%")
		renderOnce(b, i, func(w io.Writer) error {
			paths, err := core.RunWireDerivation(ctx)
			if err != nil {
				return err
			}
			saving, err := core.RunPowerDerivation(ctx)
			if err != nil {
				return err
			}
			if err := core.RenderTable4(w, t4); err != nil {
				return err
			}
			if err := core.RenderWireDerivation(w, paths); err != nil {
				return err
			}
			return core.RenderPowerDerivation(w, saving)
		})
	}
}

// BenchmarkFigure11LogicThermal regenerates the Logic+Logic thermal
// comparison (Figure 11).
func BenchmarkFigure11LogicThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunFigure11(context.Background(), core.RunSpec{Grid: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].PeakC-rows[0].PeakC, "riseC")
		renderOnce(b, i, func(w io.Writer) error { return core.RenderFigure11(w, rows) })
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
		renderOnce(b, i, func(w io.Writer) error { return core.RenderTable5(w, rows) })
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
