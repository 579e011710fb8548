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
//	stackmem -campaign -jobs 4 -retries 1 -manifest out.json
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"diestack/internal/core"
	"diestack/internal/fault"
	"diestack/internal/harness"
	"diestack/internal/thermal"
	"diestack/internal/trace"
)

// cli holds the shared flag group (profiling, -metrics-out,
// -progress); fatal needs it to flush metrics on error exits.
var cli *core.CLIFlags

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

		timeout  = flag.Duration("timeout", 0, "deadline for the whole run (campaign mode: per job attempt; 0 = none)")
		jobs     = flag.Int("jobs", 0, "campaign worker-pool size (0 = number of CPUs)")
		retries  = flag.Int("retries", 0, "campaign retries per failed or timed-out job")
		campaign = flag.Bool("campaign", false, "run the paper sweep as a supervised parallel campaign")
		manifest = flag.String("manifest", "", "write the campaign manifest JSON to this file (default stdout)")

		faultSeed   = flag.Uint64("fault-seed", 0, "fault schedule seed (same seed = same faults)")
		faultCorr   = flag.Float64("fault-corr", 0, "correctable ECC errors per million stacked-DRAM reads")
		faultUncorr = flag.Float64("fault-uncorr", 0, "uncorrectable ECC errors per million stacked-DRAM reads")
		faultBanks  = flag.String("fault-dead-banks", "", "comma-separated dead stacked-DRAM bank indices")
		faultTSV    = flag.Float64("fault-tsv", 0, "fraction of die-to-die via lanes failed, in [0,0.9]")
	)
	cli = core.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("-scale must be positive and finite, got %v", *scale))
	}
	if *grid < 0 {
		fatal(fmt.Errorf("-grid must be non-negative, got %d", *grid))
	}
	if *jobs < 0 {
		fatal(fmt.Errorf("-jobs must be non-negative, got %d", *jobs))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("-retries must be non-negative, got %d", *retries))
	}
	faults, err := faultFlags(*faultSeed, *faultCorr, *faultUncorr, *faultBanks, *faultTSV)
	if err != nil {
		fatal(err)
	}
	if err := cli.Start(); err != nil {
		fatal(err)
	}
	defer cli.Stop()

	// Interrupts and SIGTERM cancel the run cooperatively: replays and
	// solves observe the context and stop at the next check.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 && !*campaign {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	spec := core.RunSpec{Seed: *seed, Scale: *scale, Grid: *grid, Obs: cli.Obs()}
	var sweep core.CampaignParams
	if *bench != "" {
		sweep.Benchmarks = []string{*bench}
	}

	switch {
	case *campaign:
		if err := runCampaign(ctx, spec, sweep, *jobs, *retries, *timeout, *manifest); err != nil {
			fatal(err)
		}
	case *traceFile != "":
		if err := replayFile(ctx, spec, *traceFile, faults.Config()); err != nil {
			fatal(err)
		}
	case *showConfig:
		printConfig()
	case *powerOnly:
		printPower()
	case *thermOnly:
		if err := printThermal(ctx, spec); err != nil {
			fatal(err)
		}
		if *pngOut != "" {
			if err := writeThermalMap(ctx, spec, *pngOut); err != nil {
				fatal(err)
			}
		}
	default:
		if err := runPerf(ctx, spec, *bench, faults); err != nil {
			fatal(err)
		}
		fmt.Println()
		printPower()
		fmt.Println()
		if err := printThermal(ctx, spec); err != nil {
			fatal(err)
		}
	}
}

// runCampaign executes the paper sweep as a supervised campaign and
// writes the manifest. Failed jobs do not abort the sweep; they are
// recorded with their cause and the process exits non-zero.
func runCampaign(ctx context.Context, spec core.RunSpec, sweep core.CampaignParams,
	jobs, retries int, timeout time.Duration, manifestPath string) error {
	cfg := harness.Config{
		Workers: jobs,
		Timeout: timeout,
		Retries: retries,
		Backoff: 100 * time.Millisecond,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
		},
	}
	m, err := core.RunCampaign(ctx, spec, sweep, cfg)
	if err != nil {
		return err
	}
	if err := writeManifest(m, manifestPath); err != nil {
		return err
	}
	if m.OK != len(m.Jobs) {
		cli.Stop()
		os.Exit(1)
	}
	return nil
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

func fatal(err error) {
	if cli != nil {
		cli.Stop()
	}
	fmt.Fprintln(os.Stderr, "stackmem:", err)
	os.Exit(1)
}

// experiment dispatches one catalog experiment and returns its raw
// result value; the perf and thermal modes go through this single
// entry point (the campaign dispatches via core.CampaignJobs, which
// uses the same catalog).
func experiment(ctx context.Context, spec core.RunSpec, name string, params any) (any, error) {
	res, err := core.RunExperiment(ctx, name, core.ExperimentRequest{Spec: spec, Params: params})
	if err != nil {
		return nil, err
	}
	return res.Value, nil
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

func printConfig() {
	fmt.Println("Machine parameters (Table 3):")
	for _, o := range core.MemoryOptions() {
		cfg, err := o.HierarchyConfig()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-8s L2 %2d MB (%s), line %dB, %d-way, tag latency %d cyc\n",
			o, o.CapacityMB(), cfg.L2Type, cfg.L2.LineBytes, cfg.L2.Ways, cfg.L2.Latency)
	}
	base, _ := core.Planar4MB.HierarchyConfig()
	fmt.Printf("  L1I/L1D: %d KB, %dB line, %d-way, %d cyc\n",
		base.L1D.SizeBytes>>10, base.L1D.LineBytes, base.L1D.Ways, base.L1D.Latency)
	fmt.Printf("  Main memory: %d banks, %d KB page, page open %d / precharge %d / read %d cyc, +%d interface\n",
		base.Memory.Banks, base.Memory.PageBytes>>10,
		base.Memory.Timing.PageOpen, base.Memory.Timing.Precharge, base.Memory.Timing.Read,
		base.Memory.Overhead)
	fmt.Printf("  Off-die bus: %.0f GB/s at %.1f GHz (%.0f mW/Gb/s)\n",
		base.BusBytesPerCycle*base.CoreGHz, base.CoreGHz, base.BusPicoJoulePerBit)
}

func runPerf(ctx context.Context, rs core.RunSpec, bench string, faults *core.FaultParams) error {
	params := &core.Fig5Params{Faults: faults}
	if bench != "" {
		params.Benchmarks = []string{bench}
	}
	v, err := experiment(ctx, rs, "fig5", params)
	if err != nil {
		return err
	}
	res := v.(*core.Figure5Result)

	fmt.Printf("Figure 5 — CPMA and off-die bandwidth, scale %.2f:\n", rs.Scale)
	fc := faults.Config()
	if fc.Enabled() {
		fmt.Printf("fault injection on the stacked DRAM cache: seed %d, %g corr + %g uncorr per M reads, %d dead bank(s), %.0f%% via lanes lost\n",
			fc.Seed, fc.CorrectablePerMAccess, fc.UncorrectablePerMAccess,
			len(fc.DeadBanks), fc.TSVFailFrac*100)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "benchmark\tcapacity\tCPMA\tBW GB/s\tbus W\ttraffic MB"
	if fc.Enabled() {
		header += "\tECC fix\tpoisoned\tunrec\tremapped"
	}
	fmt.Fprintln(w, header)
	var faultTotal fault.Stats
	var remapTotal uint64
	for _, row := range res.Rows {
		for _, p := range row {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.2f\t%.3f\t%.1f",
				p.Benchmark, p.Option, p.CPMA, p.BandwidthGBs, p.BusPowerW, float64(p.OffDieBytes)/(1<<20))
			if fc.Enabled() {
				fmt.Fprintf(w, "\t%d\t%d\t%d\t%d",
					p.Faults.Corrected, p.Faults.LinesPoisoned, p.Faults.Unrecovered, p.DRAMRemapped)
				faultTotal.Merge(p.Faults)
				remapTotal += p.DRAMRemapped
			}
			fmt.Fprintln(w)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if fc.Enabled() {
		fmt.Printf("\nfault totals: %d ECC checks, %d corrected, %d uncorrectable (%d refetches, %d unrecovered), %d bank remaps, %d retry cycles added\n",
			faultTotal.ECCChecks, faultTotal.Corrected, faultTotal.Uncorrectable,
			faultTotal.Refetches, faultTotal.Unrecovered, remapTotal, faultTotal.RetryCyclesAdded)
	}

	if len(res.Rows) > 1 {
		h := res.Headline()
		fmt.Printf("\n32MB vs baseline: average CPMA reduction %.1f%% (paper 13%%), peak %.1f%% on %s (paper ~55%%)\n",
			h.AvgCPMAReductionPct, h.MaxCPMAReductionPct, h.MaxReductionBenchmark)
	}
	return nil
}

func printPower() {
	fmt.Println("Power budgets (Figure 7):")
	for _, o := range core.MemoryOptions() {
		fp, err := o.Floorplan()
		if err != nil {
			fatal(err)
		}
		if fp.Dies == 1 {
			fmt.Printf("  %-8s %6.1f W (planar die)\n", o, fp.TotalPower())
		} else {
			fmt.Printf("  %-8s %6.1f W (CPU die %.1f W + stacked die %.1f W)\n",
				o, fp.TotalPower(), fp.DiePower(0), fp.DiePower(1))
		}
	}
}

// writeThermalMap renders Figure 8(b): the 32MB stack's thermal map.
func writeThermalMap(ctx context.Context, rs core.RunSpec, path string) error {
	v, err := experiment(ctx, rs, "memory-thermal-map",
		&core.MemoryThermalParams{CapacityMB: core.Stacked32MB.CapacityMB()})
	if err != nil {
		return err
	}
	m := v.([][]float64)
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

func printThermal(ctx context.Context, rs core.RunSpec) error {
	fmt.Println("Peak temperatures (Figure 8a):")
	v, err := experiment(ctx, rs, "fig8", nil)
	if err != nil {
		return err
	}
	rows := v.([]core.MemoryThermal)
	paper := map[core.MemoryOption]float64{
		core.Planar4MB: 88.35, core.Stacked12MB: 92.85,
		core.Stacked32MB: 88.43, core.Stacked64MB: 90.27,
	}
	for _, r := range rows {
		fmt.Printf("  %-8s %6.2f degC  (paper %.2f)  total %6.1f W\n",
			r.Option, r.PeakC, paper[r.Option], r.TotalPowerW)
	}
	return nil
}
