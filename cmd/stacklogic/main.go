// Command stacklogic runs the Logic+Logic stacking study: the Table 4
// pipeline-elimination sweep, the Figure 11 thermal comparison, and
// the Table 5 voltage/frequency scaling scenarios.
//
// Usage:
//
//	stacklogic            run everything
//	stacklogic -table4    pipeline gains only
//	stacklogic -thermal   Figure 11 only
//	stacklogic -table5    scaling scenarios only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"text/tabwriter"

	"diestack/internal/core"
	"diestack/internal/power"
	"diestack/internal/wire"
)

// cli holds the shared flag group (profiling, -metrics-out,
// -progress); fatal needs it to flush metrics on error exits.
var cli *core.CLIFlags

func main() {
	var (
		t4Only    = flag.Bool("table4", false, "print Table 4 only")
		t5Only    = flag.Bool("table5", false, "print Table 5 only")
		thermOnly = flag.Bool("thermal", false, "print Figure 11 only")
		autoOnly  = flag.Bool("autofold", false, "run the automatic fold and compare with the hand fold")
		insts     = flag.Int("n", 200_000, "instructions per workload profile")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		grid      = flag.Int("grid", 0, "thermal grid resolution (0 = default 64)")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none)")
	)
	cli = core.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *insts <= 0 {
		fatal(fmt.Errorf("-n must be positive, got %d", *insts))
	}
	if *grid < 0 {
		fatal(fmt.Errorf("-grid must be non-negative, got %d", *grid))
	}
	if err := cli.Start(); err != nil {
		fatal(err)
	}
	defer cli.Stop()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	spec := core.RunSpec{Seed: *seed, Grid: *grid, Obs: cli.Obs()}
	if *autoOnly {
		if err := printAutoFold(ctx, spec); err != nil {
			fatal(err)
		}
		return
	}
	all := !*t4Only && !*t5Only && !*thermOnly
	if *t4Only || all {
		if err := printTable4(ctx, spec, *insts); err != nil {
			fatal(err)
		}
	}
	if *thermOnly || all {
		fmt.Println()
		if err := printFigure11(ctx, spec); err != nil {
			fatal(err)
		}
	}
	if *t5Only || all {
		fmt.Println()
		if err := printTable5(ctx, spec); err != nil {
			fatal(err)
		}
	}
}

// experiment dispatches one catalog experiment and returns its raw
// result value; every stacklogic mode goes through this single entry
// point.
func experiment(ctx context.Context, spec core.RunSpec, name string, params any) (any, error) {
	res, err := core.RunExperiment(ctx, name, core.ExperimentRequest{Spec: spec, Params: params})
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

func fatal(err error) {
	if cli != nil {
		cli.Stop()
	}
	fmt.Fprintln(os.Stderr, "stacklogic:", err)
	os.Exit(1)
}

func printTable4(ctx context.Context, spec core.RunSpec, n int) error {
	v, err := experiment(ctx, spec, "table4", &core.Table4Params{Instructions: n})
	if err != nil {
		return err
	}
	t4 := v.(core.Table4Result)
	fmt.Println("Table 4 — Logic+Logic 3D stacking performance improvement:")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "functionality\tstages eliminated\tpaper\tperf gain\tpaper")
	for _, r := range t4.Rows {
		paperStages := "Variable"
		if r.PaperStagesPct > 0 {
			paperStages = fmt.Sprintf("%.1f%%", r.PaperStagesPct)
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%s\t%.2f%%\t~%.2f%%\n",
			r.Name, r.StagesPct, paperStages, r.GainPct, r.PaperGainPct)
	}
	fmt.Fprintf(w, "Total\t%.1f%%\t~25%%\t%.2f%%\t~15%%\n", t4.StagesEliminatedPct, t4.TotalGainPct)
	if err := w.Flush(); err != nil {
		return err
	}

	v, err = experiment(ctx, spec, "wire-derivation", nil)
	if err != nil {
		return err
	}
	fmt.Println("\nWire-derived stage counts (repeated-wire RC model on the two floorplans):")
	for _, p := range v.([]core.WirePath) {
		fmt.Printf("  %-14s planar %d stage(s) -> 3D %d\n", p.Path, p.PlanarStages, p.FoldedStages)
	}

	v, err = experiment(ctx, spec, "power-derivation", nil)
	if err != nil {
		return err
	}
	saving := v.(wire.SavingReport)
	fmt.Printf("\nWire-derived power saving: planar interconnect %.1f W -> 3D %.1f W: %.1f W saved = %.1f%% of %d W (paper asserts 15%%)\n",
		saving.Planar.TotalW(), saving.Folded.TotalW(), saving.SavedW, saving.SavingPctOfTotal, 147)
	return nil
}

func printFigure11(ctx context.Context, spec core.RunSpec) error {
	v, err := experiment(ctx, spec, "fig11", nil)
	if err != nil {
		return err
	}
	rows := v.([]core.LogicThermal)
	paper := map[core.LogicOption]float64{
		core.LogicPlanar: 98.6, core.Logic3D: 112.5, core.Logic3DWorst: 124.75,
	}
	fmt.Println("Figure 11 — peak temperature of the Logic+Logic floorplans:")
	for _, r := range rows {
		fmt.Printf("  %-13s %7.2f degC (paper %.2f)  %6.1f W, density %.2fx\n",
			r.Option, r.PeakC, paper[r.Option], r.TotalPowerW, r.DensityRatio)
	}
	return nil
}

func printTable5(ctx context.Context, spec core.RunSpec) error {
	v, err := experiment(ctx, spec, "table5", nil)
	if err != nil {
		return err
	}
	rows := v.([]power.Point)
	fmt.Println("Table 5 — frequency and voltage scaling of the 3D floorplan:")
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tpower W\tpower %\tperf %\tVcc\tfreq")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.0f%%\t%.0f%%\t%.2f\t%.2f\n",
			r.Name, r.PowerW, r.PowerPct, r.PerfPct, r.Vcc, r.Freq)
	}
	return w.Flush()
}

func printAutoFold(ctx context.Context, spec core.RunSpec) error {
	v, err := experiment(ctx, spec, "autofold", nil)
	if err != nil {
		return err
	}
	cmp := v.(core.AutoFoldComparison)
	fmt.Println("Automatic place-observe-repair fold vs the hand-crafted Figure 10 fold:")
	fmt.Printf("  critical wire: planar %.2f mm, hand fold %.2f mm, auto fold %.2f mm\n",
		cmp.PlanarWire*1e3, cmp.HandWire*1e3, cmp.AutoWire*1e3)
	fmt.Printf("  hand fold: peak %6.2f degC, density %.2fx, %5.1f W\n",
		cmp.Hand.PeakC, cmp.Hand.DensityRatio, cmp.Hand.TotalPowerW)
	fmt.Printf("  auto fold: peak %6.2f degC, density %.2fx, %5.1f W\n",
		cmp.Auto.PeakC, cmp.Auto.DensityRatio, cmp.Auto.TotalPowerW)
	return nil
}
