// Command stackmem runs the Memory+Logic stacking study end to end:
// the Figure 5 CPMA/bandwidth sweep over the twelve RMS benchmarks,
// the Figure 7 power budgets, and the Figure 8 thermal comparison.
//
// Usage:
//
//	stackmem                 run everything at reference scale
//	stackmem -bench gauss    one benchmark only
//	stackmem -scale 0.25     smaller working sets (faster)
//	stackmem -config         print the Table 3 machine parameters
//	stackmem -power          print the Figure 7 power budgets
//	stackmem -thermal        print the Figure 8 temperatures
//
// Fault injection (stacked DRAM cache only; deterministic per seed):
//
//	stackmem -bench gauss -fault-uncorr 100          ECC storm
//	stackmem -bench gauss -fault-dead-banks 0,1,2,3  bank kill
//	stackmem -bench gauss -fault-tsv 0.25            via lane loss
//
// Supervised campaigns:
//
//	stackmem -campaign -jobs 4 -manifest out.json
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"diestack/internal/core"
	"diestack/internal/fault"
	"diestack/internal/harness"
	"diestack/internal/thermal"
	"diestack/internal/trace"
)

func main() {
	var (
		traceFile  = flag.String("trace", "", "replay a binary trace file instead of generating workloads")
		bench      = flag.String("bench", "", "run a single benchmark (default: all twelve)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-sized footprints)")
		seed       = flag.Uint64("seed", 1, "trace generation seed")
		grid       = flag.Int("grid", 0, "thermal grid resolution (0 = default 64)")
		showConfig = flag.Bool("config", false, "print the Table 3 machine parameters and exit")
		powerOnly  = flag.Bool("power", false, "print the Figure 7 power budgets and exit")
		thermOnly  = flag.Bool("thermal", false, "print the Figure 8 temperatures and exit")
		pngOut     = flag.String("png", "", "write the 32MB stack's thermal map (Figure 8b) to this PNG file")

		timeout  = flag.Duration("timeout", 0, "deadline for the whole run (campaign mode: per job; 0 = none)")
		jobs     = flag.Int("jobs", 0, "campaign worker-pool size, at most GOMAXPROCS (0 = GOMAXPROCS)")
		campaign = flag.Bool("campaign", false, "run the paper sweep as a supervised parallel campaign")
		manifest = flag.String("manifest", "", "write the campaign manifest JSON to this file (default stdout)")

		faultSeed   = flag.Uint64("fault-seed", 0, "fault schedule seed (same seed = same faults)")
		faultCorr   = flag.Float64("fault-corr", 0, "correctable ECC errors per million stacked-DRAM reads")
		faultUncorr = flag.Float64("fault-uncorr", 0, "uncorrectable ECC errors per million stacked-DRAM reads")
		faultBanks  = flag.String("fault-dead-banks", "", "comma-separated dead stacked-DRAM bank indices")
		faultTSV    = flag.Float64("fault-tsv", 0, "fraction of die-to-die via lanes failed, in [0,0.9]")
	)
	cli := core.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		cli.Fatal(fmt.Errorf("-scale must be positive and finite, got %v", *scale))
	}
	if *grid < 0 {
		cli.Fatal(fmt.Errorf("-grid must be non-negative, got %d", *grid))
	}
	if *jobs < 0 {
		cli.Fatal(fmt.Errorf("-jobs must be non-negative, got %d", *jobs))
	}
	faults, err := faultFlags(*faultSeed, *faultCorr, *faultUncorr, *faultBanks, *faultTSV)
	if err != nil {
		cli.Fatal(err)
	}
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()

	// In campaign mode -timeout bounds each job, not the run.
	runTimeout := *timeout
	if *campaign {
		runTimeout = 0
	}
	ctx, cancel := cli.Context(context.Background(), runTimeout)
	defer cancel()

	spec := core.RunSpec{Seed: *seed, Scale: *scale, Grid: *grid, Obs: cli.Obs()}
	switch {
	case *campaign:
		var sweep core.CampaignParams
		if *bench != "" {
			sweep.Benchmarks = []string{*bench}
		}
		m, err := runCampaign(ctx, spec, sweep, *jobs, *timeout, *manifest)
		if err != nil {
			cli.Fatal(err)
		}
		if m.OK != len(m.Jobs) {
			cli.Exit(1)
		}
	case *traceFile != "":
		err = replayFile(ctx, spec, *traceFile, faults.Config())
	case *showConfig:
		err = core.RenderTable3(os.Stdout)
	case *powerOnly:
		err = core.RenderFigure7(os.Stdout)
	case *thermOnly:
		err = printThermal(ctx, spec)
		if err == nil && *pngOut != "" {
			err = writeThermalMap(ctx, spec, *pngOut)
		}
	default:
		err = runAll(ctx, spec, *bench, faults)
	}
	if err != nil {
		cli.Fatal(err)
	}
}

// runCampaign executes the paper sweep as a supervised campaign,
// writes the manifest and returns it. Failed jobs do not abort the
// sweep; they are recorded with their cause.
func runCampaign(ctx context.Context, spec core.RunSpec, sweep core.CampaignParams,
	jobs int, timeout time.Duration, manifestPath string) (*harness.Manifest, error) {
	cfg := harness.Config{
		Workers: jobs,
		Timeout: timeout,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	}
	m, err := core.RunCampaign(ctx, spec, sweep, cfg)
	if err != nil {
		return nil, err
	}
	return m, writeManifest(m, manifestPath)
}

// writeManifest writes m to path, or stdout when path is empty, and
// prints the outcome summary.
func writeManifest(m *harness.Manifest, path string) error {
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := m.WriteJSON(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: %d ok, %d failed, %d panicked, %d timeout, %d canceled\n",
		m.OK, m.Failed, m.Panicked, m.Timeout, m.Canceled)
	return nil
}

// faultFlags assembles and validates the fault flag group as the
// catalog's fault params; nil when no injection was requested, which
// keeps the replays on their no-fault path.
func faultFlags(seed uint64, corr, uncorr float64, deadBanks string, tsv float64) (*core.FaultParams, error) {
	fp := &core.FaultParams{
		Seed:              seed,
		CorrectablePerM:   corr,
		UncorrectablePerM: uncorr,
		TSVFailFrac:       tsv,
	}
	if deadBanks != "" {
		for _, s := range strings.Split(deadBanks, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("-fault-dead-banks: bad index %q: %w", s, err)
			}
			fp.DeadBanks = append(fp.DeadBanks, b)
		}
	}
	fc := fp.Config()
	if err := fc.Validate(); err != nil {
		return nil, fmt.Errorf("fault flags: %w", err)
	}
	if !fc.Enabled() {
		return nil, nil
	}
	return fp, nil
}

// replayFile runs a tracegen-produced binary trace through all four
// configurations. The file is decoded once, and the Figure 5 sweep
// runs its records through the L1 front end once.
func replayFile(ctx context.Context, rs core.RunSpec, path string, fc fault.Config) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %s on the four configurations:\n", path)
	recs, err := trace.Collect(ctx, trace.NewReader(bytes.NewReader(data)), 0)
	if err != nil {
		return err
	}
	rows, err := core.ReplayTrace(ctx, rs, path, recs, fc)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "capacity\tCPMA\tBW GB/s\ttraffic MB\trecords"
	if fc.Enabled() {
		header += "\tECC fix\tpoisoned\tremapped"
	}
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.1f\t%d",
			r.Option, r.CPMA, r.BandwidthGBs, float64(r.OffDieBytes)/(1<<20), len(recs))
		if fc.Enabled() {
			fmt.Fprintf(w, "\t%d\t%d\t%d",
				r.Faults.Corrected, r.Faults.LinesPoisoned, r.DRAMRemapped)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// runAll prints the whole Memory+Logic study: Figure 5, then Figure 7
// and Figure 8.
func runAll(ctx context.Context, rs core.RunSpec, bench string, faults *core.FaultParams) error {
	params := &core.Fig5Params{Faults: faults}
	if bench != "" {
		params.Benchmarks = []string{bench}
	}
	res, err := core.ExperimentValue[*core.Figure5Result](ctx, "fig5", rs, params)
	if err != nil {
		return err
	}
	if err := core.RenderFigure5(os.Stdout, res, rs.Scale, faults); err != nil {
		return err
	}
	fmt.Println()
	if err := core.RenderFigure7(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return printThermal(ctx, rs)
}

func printThermal(ctx context.Context, rs core.RunSpec) error {
	rows, err := core.ExperimentValue[[]core.MemoryThermal](ctx, "fig8", rs, nil)
	if err != nil {
		return err
	}
	return core.RenderFigure8(os.Stdout, rows)
}

// writeThermalMap renders Figure 8(b): the 32MB stack's thermal map.
func writeThermalMap(ctx context.Context, rs core.RunSpec, path string) error {
	m, err := core.ExperimentValue[[][]float64](ctx, "memory-thermal-map", rs,
		&core.MemoryThermalParams{CapacityMB: core.Stacked32MB.CapacityMB()})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := thermal.WritePNG(f, m, 8); err != nil {
		return err
	}
	fmt.Printf("32MB stack thermal map written to %s\n", path)
	return nil
}
