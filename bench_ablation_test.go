// Ablation benchmarks for the design choices DESIGN.md calls out:
// each one re-runs a representative experiment with a single mechanism
// disabled or resized, printing the resulting metric next to the
// default. Run with:
//
//	go test -run NONE -bench Ablation -benchtime 1x .
package diestack_test

import (
	"context"
	"fmt"
	"testing"

	"diestack/internal/core"
	"diestack/internal/dram"
	"diestack/internal/memhier"
	"diestack/internal/thermal"
	"diestack/internal/trace"
	"diestack/internal/uarch"
	"diestack/internal/uarch/synth"
	"diestack/internal/workload"
)

// runDRAMCacheCPMA replays a benchmark on a 32 MB stacked-DRAM
// configuration after applying cfgMod.
func runDRAMCacheCPMA(b *testing.B, recs []trace.Record, cfgMod func(*memhier.Config)) memhier.Result {
	b.Helper()
	cfg, _ := memhier.ConfigByCapacity(32)
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	sim, err := memhier.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(context.Background(), trace.NewSliceStream(recs), memhier.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationSectoredFills compares the paper's 64 B sector
// fills against naive full-page (512 B) fills on the DRAM cache: the
// sector design is what keeps the fill traffic proportional to demand.
func BenchmarkAblationSectoredFills(b *testing.B) {
	bench, _ := workload.ByName("sMVM")
	recs := bench.Generate(1, 0.7)
	for i := 0; i < b.N; i++ {
		sect := runDRAMCacheCPMA(b, recs, nil)
		full := runDRAMCacheCPMA(b, recs, func(c *memhier.Config) {
			c.L2.SectorBytes = 0 // fills move whole 512 B pages
		})
		b.ReportMetric(sect.CPMA, "CPMA/sectored")
		b.ReportMetric(full.CPMA, "CPMA/fullpage")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: 64B sector fills vs 512B page fills (sMVM, 32MB DRAM cache)\n")
			fmt.Printf("  sectored:  CPMA %.3f, off-die %6.1f MB\n", sect.CPMA, float64(sect.OffDieBytes)/(1<<20))
			fmt.Printf("  full-page: CPMA %.3f, off-die %6.1f MB\n", full.CPMA, float64(full.OffDieBytes)/(1<<20))
		})
	}
}

// BenchmarkAblationRowBuffers sweeps the stacked array's open-row
// capacity (1 = classic single row buffer, 16 = FR-FCFS-style
// batching).
func BenchmarkAblationRowBuffers(b *testing.B) {
	bench, _ := workload.ByName("sUS")
	recs := bench.Generate(1, 0.7)
	for i := 0; i < b.N; i++ {
		var vals []float64
		depths := []int{1, 4, 16}
		for _, d := range depths {
			res := runDRAMCacheCPMA(b, recs, func(c *memhier.Config) {
				c.DRAMArray.RowBuffers = d
			})
			vals = append(vals, res.CPMA)
		}
		b.ReportMetric(vals[0], "CPMA/rb1")
		b.ReportMetric(vals[2], "CPMA/rb16")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: per-bank open-row capacity (sUS, 32MB DRAM cache)\n")
			for j, d := range depths {
				fmt.Printf("  %2d open rows: CPMA %.3f\n", d, vals[j])
			}
		})
	}
}

// BenchmarkAblationPostedWrites disables the DRAM write queue so
// writebacks and fills occupy banks at full cost.
func BenchmarkAblationPostedWrites(b *testing.B) {
	bench, _ := workload.ByName("sTrans")
	recs := bench.Generate(1, 0.7)
	for i := 0; i < b.N; i++ {
		posted := runDRAMCacheCPMA(b, recs, nil)
		blocking := runDRAMCacheCPMA(b, recs, func(c *memhier.Config) {
			c.DRAMArray.PostedWrites = false
		})
		b.ReportMetric(posted.CPMA, "CPMA/posted")
		b.ReportMetric(blocking.CPMA, "CPMA/blocking")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: posted vs blocking DRAM writes (sTrans, 32MB DRAM cache)\n")
			fmt.Printf("  posted:   CPMA %.3f\n  blocking: CPMA %.3f\n", posted.CPMA, blocking.CPMA)
		})
	}
}

// BenchmarkAblationReplayWindow sweeps the replay engine's reorder
// window, showing why strictly in-order issue (window 1) distorts the
// study.
func BenchmarkAblationReplayWindow(b *testing.B) {
	bench, _ := workload.ByName("pcg")
	recs := bench.Generate(1, 0.5)
	for i := 0; i < b.N; i++ {
		windows := []int{1, 8, 48, 192}
		var vals []float64
		for _, w := range windows {
			res := runDRAMCacheCPMA(b, recs, func(c *memhier.Config) {
				c.WindowRecords = w
			})
			vals = append(vals, res.CPMA)
		}
		b.ReportMetric(vals[0], "CPMA/win1")
		b.ReportMetric(vals[2], "CPMA/win48")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: replay reorder window (pcg, 32MB DRAM cache)\n")
			for j, w := range windows {
				fmt.Printf("  window %3d: CPMA %.3f\n", w, vals[j])
			}
		})
	}
}

// BenchmarkAblationBankHashing compares the hashed bank index against
// plain modulo interleaving, where 1 GB-aligned structures collide.
func BenchmarkAblationBankHashing(b *testing.B) {
	// The dram package always hashes; emulate "no hashing" by placing
	// two interleaved streams at bank-aliasing addresses and measuring
	// the raw device: same-bank conflicts vs spread accesses.
	for i := 0; i < b.N; i++ {
		dev := dram.New(dram.Config{Banks: 16, PageBytes: 512, Timing: dram.PaperTiming()})
		var aliasedDone, spreadDone int64
		// Aliased: two streams 8 KB apart within one bank's row space.
		now := int64(0)
		for j := 0; j < 2000; j++ {
			a := uint64(j/2) * 64
			if j%2 == 1 {
				a += 25 * 512 // same bank, different row (see dram tests)
			}
			d, _ := dev.Access(now, a, false)
			if d > aliasedDone {
				aliasedDone = d
			}
			now += 4
		}
		dev2 := dram.New(dram.Config{Banks: 16, PageBytes: 512, Timing: dram.PaperTiming()})
		now = 0
		for j := 0; j < 2000; j++ {
			a := uint64(j/2) * 64
			if j%2 == 1 {
				a += 3 * 512 // a different bank under any mapping
			}
			d, _ := dev2.Access(now, a, false)
			if d > spreadDone {
				spreadDone = d
			}
			now += 4
		}
		b.ReportMetric(float64(aliasedDone), "cycles/aliased")
		b.ReportMetric(float64(spreadDone), "cycles/spread")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: bank aliasing cost (2000 interleaved accesses)\n")
			fmt.Printf("  same-bank streams:     done at cycle %d\n", aliasedDone)
			fmt.Printf("  separate-bank streams: done at cycle %d\n", spreadDone)
		})
	}
}

// BenchmarkAblationFoldGroups runs the pipeline fold cumulatively to
// show the gain trajectory (which stages carry the 15%).
func BenchmarkAblationFoldGroups(b *testing.B) {
	cfg := uarch.PlanarConfig()
	for i := 0; i < b.N; i++ {
		base, err := synth.RunSuite(context.Background(), cfg, 1, 60_000)
		if err != nil {
			b.Fatal(err)
		}
		acc := uarch.Fold{}
		groups := synth.Table4Groups()
		var lastGain float64
		lines := make([]string, 0, len(groups))
		for _, g := range groups {
			acc = orFold(acc, g.Fold)
			res, err := synth.RunSuite(context.Background(), cfg.Apply(acc), 1, 60_000)
			if err != nil {
				b.Fatal(err)
			}
			lastGain = (res.IPC/base.IPC - 1) * 100
			lines = append(lines, fmt.Sprintf("  +%-26s cumulative %+6.2f%%", g.Name, lastGain))
		}
		b.ReportMetric(lastGain, "cumGain%")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: cumulative fold trajectory (suite average)\n")
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

func orFold(a, c uarch.Fold) uarch.Fold {
	return uarch.Fold{
		FrontEnd:    a.FrontEnd || c.FrontEnd,
		TraceCache:  a.TraceCache || c.TraceCache,
		Rename:      a.Rename || c.Rename,
		FPLatency:   a.FPLatency || c.FPLatency,
		IntRF:       a.IntRF || c.IntRF,
		DCache:      a.DCache || c.DCache,
		Loop:        a.Loop || c.Loop,
		RetireDealc: a.RetireDealc || c.RetireDealc,
		FPLoad:      a.FPLoad || c.FPLoad,
		StoreLife:   a.StoreLife || c.StoreLife,
	}
}

// BenchmarkAblationThermalGrid checks grid-resolution convergence of
// the calibrated baseline peak.
func BenchmarkAblationThermalGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grids := []int{24, 48, 64, 96}
		var peaks []float64
		for _, g := range grids {
			rows, err := coreFigure6Peak(g)
			if err != nil {
				b.Fatal(err)
			}
			peaks = append(peaks, rows)
		}
		b.ReportMetric(peaks[len(peaks)-1]-peaks[0], "grid24to96C")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: thermal grid resolution (baseline planar peak)\n")
			for j, g := range grids {
				fmt.Printf("  %2dx%-2d: %.2f degC\n", g, g, peaks[j])
			}
		})
	}
}

func coreFigure6Peak(grid int) (float64, error) {
	_, tm, err := figure6(grid)
	if err != nil {
		return 0, err
	}
	peak := -1e9
	for _, row := range tm {
		for _, v := range row {
			if v > peak {
				peak = v
			}
		}
	}
	return peak, nil
}

// figure6 delegates to the core package's Figure 6 solver.
var figure6 = func(grid int) ([][]float64, [][]float64, error) {
	return core.Figure6Maps(context.Background(), core.RunSpec{Grid: grid})
}

var _ = thermal.AmbientC // anchor the thermal import for readability

// BenchmarkAblationPredictorMode re-measures the full fold's gain with
// a modeled gshare front end instead of annotated mispredictions: the
// Logic+Logic conclusion should not depend on how branch behaviour is
// modeled.
func BenchmarkAblationPredictorMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		annotated := uarch.PlanarConfig()
		modeled := uarch.PlanarConfig()
		modeled.Predictor = &uarch.PredictorConfig{TableBits: 12, HistoryBits: 4}

		gain := func(cfg uarch.Config) float64 {
			base, err := synth.RunSuite(context.Background(), cfg, 1, 100_000)
			if err != nil {
				b.Fatal(err)
			}
			full, err := synth.RunSuite(context.Background(), cfg.Apply(uarch.FullFold()), 1, 100_000)
			if err != nil {
				b.Fatal(err)
			}
			return (full.IPC/base.IPC - 1) * 100
		}
		ga := gain(annotated)
		gm := gain(modeled)
		b.ReportMetric(ga, "gainAnnotated%")
		b.ReportMetric(gm, "gainModeled%")
		printOnce(b, i, func() {
			fmt.Printf("\nAblation: fold gain under annotated vs modeled branch prediction\n")
			fmt.Printf("  annotated mispredictions: %+.2f%%\n  gshare front end:         %+.2f%%\n", ga, gm)
		})
	}
}
