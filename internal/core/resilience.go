package core

import (
	"context"
	"fmt"

	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/power"
	"diestack/internal/thermal"
)

// This file ties the fault and dtm packages into the Logic+Logic
// study: closed-loop thermal management for the folded stacks, whose
// higher power density is the paper's main 3D concern. Faulty
// stacked-DRAM hierarchies for the Memory+Logic study run through the
// Figure 5 sweep (memory.go).

// DesignFor returns the V/f design point the DTM actuator uses for a
// logic option: the paper's 3D implementation (85% power, +15%
// performance) for the folded options, the planar reference otherwise.
func DesignFor(o LogicOption) power.Design {
	d := power.Pentium4ThreeDDesign()
	if o == LogicPlanar {
		d.PowerFactor = 1
		d.PerfGainPct = 0
	}
	if o == Logic3DWorst {
		// The pathological fold saves no power.
		d.PowerFactor = 1
	}
	return d
}

// ManagedLogicThermal reports one closed-loop DTM run over a logic
// stack (a Figure 11 configuration with a thermostat in the loop).
type ManagedLogicThermal struct {
	Option LogicOption
	// UnmanagedPeakC is the steady peak with no management — what the
	// configured Tmax is up against.
	UnmanagedPeakC float64
	// DTM is the managed trajectory and the controller's verdict.
	DTM dtm.Result
	// Faults holds the sensor-fault counters (all-zero without
	// injection).
	Faults fault.Stats
}

// RunManagedLogicThermal integrates a logic option's thermal stack with
// a DTM controller in the loop, sampling temperature through the
// (possibly faulty) sensor fc configures. A zero cfg.FallbackPowerFraction
// on a stacked option is defaulted from the floorplan: the base die's
// share of total power, i.e. what survives parking the stacked die.
// The returned error wraps dtm.ErrThermalRunaway when Tmax cannot be
// held; the partial result is still returned for diagnosis. spec.Obs
// flows into both the transient solver and the controller, and
// receives the sensor's fault_* counters when the run returns.
func RunManagedLogicThermal(ctx context.Context, spec RunSpec, o LogicOption, cfg dtm.Config, fc fault.Config, opt thermal.TransientOptions) (ManagedLogicThermal, error) {
	out := ManagedLogicThermal{Option: o}
	fp, err := o.Floorplan()
	if err != nil {
		return out, err
	}
	// One workspace serves the unmanaged steady solve and then the
	// managed integration: both run on the same stack, and a transient
	// resets everything a steady solve leaves behind.
	w, err := thermal.NewWorkspace(buildLogicStack(fp, spec.Grid, 1))
	if err != nil {
		return out, fmt.Errorf("core: unmanaged solve: %w", err)
	}
	defer w.Close()
	steady, err := w.Solve(ctx, thermal.SolveOptions{Obs: spec.Obs})
	if err != nil {
		return out, fmt.Errorf("core: unmanaged solve: %w", err)
	}
	out.UnmanagedPeakC = steady.Peak()

	if cfg.FallbackPowerFraction == 0 && fp.Dies > 1 {
		cfg.FallbackPowerFraction = fp.DiePower(0) / fp.TotalPower()
	}

	var sensor func(float64) float64
	var inj *fault.Injector
	if fc.Enabled() {
		if inj, err = fault.New(fc); err != nil {
			return out, fmt.Errorf("core: faults: %w", err)
		}
		defer func() { fault.Publish(spec.Obs, fault.Stats{}, inj.Stats()) }()
		sensor = inj.Sensor()
	}
	if cfg.Obs == nil {
		cfg.Obs = spec.Obs
	}
	ctrl, err := dtm.New(cfg, power.PaperLaws(), DesignFor(o), sensor)
	if err != nil {
		return out, err
	}

	if opt.Obs == nil {
		opt.Obs = spec.Obs
	}
	res, runErr := dtm.RunWorkspace(ctx, w, opt, ctrl)
	out.DTM = res
	if inj != nil {
		out.Faults = inj.Stats()
	}
	return out, runErr
}
