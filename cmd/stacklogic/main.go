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

	"diestack/internal/core"
	"diestack/internal/power"
	"diestack/internal/wire"
)

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
	cli := core.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *insts <= 0 {
		cli.Fatal(fmt.Errorf("-n must be positive, got %d", *insts))
	}
	if *grid < 0 {
		cli.Fatal(fmt.Errorf("-grid must be non-negative, got %d", *grid))
	}
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()
	ctx, cancel := cli.Context(context.Background(), *timeout)
	defer cancel()

	spec := core.RunSpec{Seed: *seed, Grid: *grid, Obs: cli.Obs()}
	if *autoOnly {
		cmp, err := core.ExperimentValue[core.AutoFoldComparison](ctx, "autofold", spec, nil)
		if err == nil {
			err = core.RenderAutoFold(os.Stdout, cmp)
		}
		if err != nil {
			cli.Fatal(err)
		}
		return
	}
	all := !*t4Only && !*t5Only && !*thermOnly
	if *t4Only || all {
		if err := printTable4(ctx, spec, *insts); err != nil {
			cli.Fatal(err)
		}
	}
	if *thermOnly || all {
		fmt.Println()
		rows, err := core.ExperimentValue[[]core.LogicThermal](ctx, "fig11", spec, nil)
		if err == nil {
			err = core.RenderFigure11(os.Stdout, rows)
		}
		if err != nil {
			cli.Fatal(err)
		}
	}
	if *t5Only || all {
		fmt.Println()
		rows, err := core.ExperimentValue[[]power.Point](ctx, "table5", spec, nil)
		if err == nil {
			err = core.RenderTable5(os.Stdout, rows)
		}
		if err != nil {
			cli.Fatal(err)
		}
	}
}

// printTable4 prints Table 4 with the wire-derived stage counts and
// power saving behind it.
func printTable4(ctx context.Context, spec core.RunSpec, n int) error {
	t4, err := core.ExperimentValue[core.Table4Result](ctx, "table4", spec, &core.Table4Params{Instructions: n})
	if err != nil {
		return err
	}
	paths, err := core.ExperimentValue[[]core.WirePath](ctx, "wire-derivation", spec, nil)
	if err != nil {
		return err
	}
	saving, err := core.ExperimentValue[wire.SavingReport](ctx, "power-derivation", spec, nil)
	if err != nil {
		return err
	}
	return core.RenderTable4(os.Stdout, t4, paths, saving)
}
