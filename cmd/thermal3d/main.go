// Command thermal3d is the standalone 3D die-stacking thermal tool:
// it prints the Table 2 material constants, solves the baseline planar
// thermal map (Figure 6), and runs the Figure 3 conductivity
// sensitivity sweep.
//
// Usage:
//
//	thermal3d             run everything
//	thermal3d -materials  Table 2 constants only
//	thermal3d -baseline   Figure 6 maps only
//	thermal3d -sweep      Figure 3 sweep only
//
// Dynamic thermal management (closed-loop DVFS on the 3D logic stack):
//
//	thermal3d -dtm -tmax 90                   hold 90C, report the cost
//	thermal3d -dtm -tmax 90 -sensor-noise 2   with a noisy sensor
//	thermal3d -dtm -tmax 90 -sensor-stuck 50  with a stuck sensor
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"diestack/internal/core"
	"diestack/internal/dtm"
	"diestack/internal/thermal"
)

func main() {
	var (
		matOnly   = flag.Bool("materials", false, "print the Table 2 constants and exit")
		baseOnly  = flag.Bool("baseline", false, "solve the Figure 6 baseline maps and exit")
		sweepOnly = flag.Bool("sweep", false, "run the Figure 3 sensitivity sweep and exit")
		grid      = flag.Int("grid", 0, "grid resolution (0 = default 64)")
		pngOut    = flag.String("png", "", "also write the Figure 6 thermal map to this PNG file")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none)")

		dtmOn      = flag.Bool("dtm", false, "run closed-loop thermal management on the 3D logic stack and exit")
		tmax       = flag.Float64("tmax", 90, "DTM: peak temperature ceiling in degC")
		dtmHyst    = flag.Float64("dtm-hyst", 4, "DTM: guard/dead band in degC — size it to the heat-up per sample interval")
		dtmDt      = flag.Float64("dtm-dt", 0.25, "DTM: sample interval in seconds")
		dtmSteps   = flag.Int("dtm-steps", 240, "DTM: number of samples")
		dtmMinFreq = flag.Float64("dtm-minfreq", 0, "DTM: throttle floor as a fraction of nominal (0 = default)")

		sensorNoise  = flag.Float64("sensor-noise", 0, "sensor fault: gaussian noise sigma in degC")
		sensorOffset = flag.Float64("sensor-offset", 0, "sensor fault: constant calibration error in degC")
		sensorStuck  = flag.Float64("sensor-stuck", math.NaN(), "sensor fault: stuck-at reading in degC")
		faultSeed    = flag.Uint64("fault-seed", 0, "sensor fault schedule seed")
	)
	cli := core.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *grid < 0 {
		cli.Fatal(fmt.Errorf("-grid must be non-negative, got %d", *grid))
	}
	if err := cli.Start(); err != nil {
		cli.Fatal(err)
	}
	defer cli.Stop()
	ctx, cancel := cli.Context(context.Background(), *timeout)
	defer cancel()
	spec := core.RunSpec{Grid: *grid, Obs: cli.Obs()}
	if *dtmOn {
		held, err := runDTM(ctx, spec, *tmax, *dtmHyst, *dtmDt, *dtmSteps, *dtmMinFreq,
			*sensorNoise, *sensorOffset, *sensorStuck, *faultSeed)
		if err != nil {
			cli.Fatal(err)
		}
		if !held {
			cli.Exit(1)
		}
		return
	}

	all := !*matOnly && !*baseOnly && !*sweepOnly
	if *matOnly || all {
		if err := core.RenderTable2(os.Stdout); err != nil {
			cli.Fatal(err)
		}
	}
	if *baseOnly || all {
		fmt.Println()
		if err := printBaseline(ctx, spec, *pngOut); err != nil {
			cli.Fatal(err)
		}
	}
	if *sweepOnly || all {
		fmt.Println()
		if err := printSweep(ctx, spec); err != nil {
			cli.Fatal(err)
		}
	}
}

// runDTM integrates the 3D logic stack with the DTM controller in the
// loop and reports the managed operating point and its cost. It
// reports whether Tmax held; a run that ran away has printed its
// verdict and returns false with no error.
func runDTM(ctx context.Context, spec core.RunSpec, tmax, hyst, dt float64, steps int, minFreq, noise, offset, stuck float64, seed uint64) (bool, error) {
	cfg := dtm.Config{TmaxC: tmax, HysteresisC: hyst, MinFreq: minFreq}
	if err := cfg.Validate(); err != nil {
		return false, fmt.Errorf("dtm flags: %w", err)
	}
	if dt <= 0 || math.IsNaN(dt) {
		return false, fmt.Errorf("-dtm-dt must be positive, got %v", dt)
	}
	if steps <= 0 {
		return false, fmt.Errorf("-dtm-steps must be positive, got %d", steps)
	}
	faults := &core.FaultParams{Seed: seed, SensorNoiseC: noise, SensorOffsetC: offset}
	if !math.IsNaN(stuck) {
		faults.SensorStuck = true
		faults.SensorStuckAtC = stuck
	}
	fc := faults.Config()
	if err := fc.Validate(); err != nil {
		return false, fmt.Errorf("sensor flags: %w", err)
	}
	if !fc.Enabled() {
		faults = nil
	}

	params := &core.ManagedThermalParams{
		Variant: core.Logic3D.Slug(), TmaxC: tmax, HysteresisC: hyst,
		MinFreq: minFreq, DtSeconds: dt, Steps: steps, Faults: faults,
	}
	// On runaway the catalog still carries the partial trajectory.
	res, err := core.ExperimentValue[core.ManagedLogicThermal](ctx, "managed-logic-thermal", spec, params)
	if err != nil && !errors.Is(err, dtm.ErrThermalRunaway) {
		return false, err
	}

	fmt.Printf("DTM on the 3D logic stack (Tmax %.1f degC, %d samples at %.2fs):\n", tmax, steps, dt)
	fmt.Printf("  unmanaged steady peak  %7.2f degC\n", res.UnmanagedPeakC)
	fmt.Printf("  managed peak           %7.2f degC\n", res.DTM.ManagedPeakC)
	st := res.DTM.Stats
	fmt.Printf("  interventions          %d throttle, %d emergency, %d release (%d/%d samples throttled)\n",
		st.ThrottleSteps, st.EmergencyDrops, st.ReleaseSteps, st.SamplesThrottled, st.Samples)
	fmt.Printf("  operating point        freq %.2f, perf %.1f%%, power %.1f%% of baseline\n",
		res.DTM.FinalFreq, res.DTM.PerfPct, res.DTM.PowerPct)
	if res.DTM.Fallback {
		fmt.Println("  stacked die PARKED (2D-equivalent fallback)")
	}
	if fc.Enabled() {
		fmt.Printf("  sensor                 %d reads, peak sensed %.2f vs true %.2f degC\n",
			res.Faults.SensorReads, st.PeakSensedC, st.PeakTrueC)
	}
	switch {
	case err != nil:
		fmt.Printf("  VERDICT: %v\n", err)
		return false, nil
	case res.DTM.ManagedPeakC > tmax:
		// No runaway, but sampling let the peak slip past the ceiling
		// between interventions.
		fmt.Printf("  VERDICT: Tmax exceeded transiently by %.2f degC — widen -dtm-hyst or shrink -dtm-dt\n",
			res.DTM.ManagedPeakC-tmax)
		return false, nil
	default:
		fmt.Println("  VERDICT: Tmax held")
		return true, nil
	}
}

// printBaseline solves the planar reference and renders the Figure 6
// temperature map as ASCII shading.
func printBaseline(ctx context.Context, spec core.RunSpec, pngOut string) error {
	maps, err := core.ExperimentValue[core.Figure6Result](ctx, "fig6", spec, nil)
	if err != nil {
		return err
	}
	if pngOut != "" {
		f, err := os.Create(pngOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := thermal.WritePNG(f, maps.Temperature, 8); err != nil {
			return err
		}
		fmt.Printf("thermal map written to %s\n", pngOut)
	}
	return core.RenderFigure6(os.Stdout, maps)
}

func printSweep(ctx context.Context, spec core.RunSpec) error {
	var sweeps [2][]core.SensitivityPoint
	for i, layer := range []string{"cu-metal", "bond"} {
		pts, err := core.ExperimentValue[[]core.SensitivityPoint](ctx, "fig3", spec, &core.Fig3Params{Layer: layer})
		if err != nil {
			return err
		}
		sweeps[i] = pts
	}
	return core.RenderFigure3(os.Stdout, sweeps[0], sweeps[1])
}
