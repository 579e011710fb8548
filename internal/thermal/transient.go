package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"

	"diestack/internal/obs"
)

// TransientOptions tunes SolveTransient.
type TransientOptions struct {
	// Dt is the time step in seconds. Implicit Euler is
	// unconditionally stable, so Dt trades accuracy for speed; the die
	// responds in milliseconds and the sink in tens of seconds.
	Dt float64
	// Steps is the number of time steps to take.
	Steps int
	// InnerCycles caps the cycles solved per implicit step (default
	// 10; negative is rejected). A step ends earlier, as soon as a
	// cycle changes no temperature by more than 1e-4 K (stagnationK,
	// the steady solver's stagnation test), which on V-cycles takes a
	// handful of cycles, so the cap does not bind.
	InnerCycles int
	// InitialC is the uniform starting temperature (default ambient).
	InitialC float64
	// Omega relaxes the smoother's z-line updates, in (0,2) (default
	// 1.0, exact line Gauss-Seidel).
	Omega float64
	// MaxRecoveries bounds the divergence-recovery restarts: when a
	// step produces a non-finite temperature the whole integration is
	// restarted on the recovery rung (fine-level smoothing alone at a
	// damped relaxation factor), the last time with a halved time step
	// (and doubled step count, preserving the horizon). Zero selects
	// the default (2); negative disables recovery.
	MaxRecoveries int
	// PowerScale, when non-nil, is consulted before every step with
	// the current simulated time and the previous step's peak
	// temperature, and returns a multiplier applied to all power maps
	// for the step. It is the hook for dynamic thermal management
	// studies: a thermostat or DVFS governor closes the loop here.
	// After a divergence recovery the integration restarts from t=0
	// and the hook is consulted again from the beginning.
	PowerScale func(t float64, peakC float64) float64
	// Obs, when non-nil, receives transient metrics (thermal_steps and
	// thermal_divergence_retries counters, a live thermal_peak_c gauge
	// updated every step) and a "thermal/transient" span per
	// integration. A nil registry costs nothing.
	Obs *obs.Registry
}

func (o TransientOptions) withDefaults() TransientOptions {
	if o.InnerCycles == 0 {
		o.InnerCycles = 10
	}
	if o.Omega == 0 {
		o.Omega = 1.0
	}
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = 2
	}
	if o.MaxRecoveries < 0 {
		o.MaxRecoveries = 0
	}
	return o
}

// TransientResult is a time-stepped solution.
type TransientResult struct {
	// Final is the temperature field after the last step.
	Final *Field
	// Times[i] is the simulated time after step i, in seconds.
	Times []float64
	// PeakC[i] is the hottest cell after step i.
	PeakC []float64
	// StoredJ[i] is the thermal energy stored above ambient after step
	// i, in joules (the integral of C·(T-Tamb)).
	StoredJ []float64
	// Scale[i] is the power multiplier the PowerScale hook applied at
	// step i (1.0 throughout when no hook is installed).
	Scale []float64
	// Recoveries counts the divergence-recovery restarts that were
	// needed (0 for a clean integration). Each restart runs the
	// recovery rung; the final one also halves Dt. Dt reports the step
	// actually used.
	Recoveries int
	// Dt is the time step the successful integration actually used
	// (opt.Dt, or a halved value after recovery).
	Dt float64
}

// SolveTransient integrates the time-dependent conservation equation
// (the paper's Equation 1 with its ∂t term) by implicit Euler: each
// step solves the steady operator augmented with C/dt on the diagonal,
// iterated until it stagnates, so every step's field balances energy
// (stored-energy change plus outflow equals injected power).
// Power maps are applied as a step input at t=0 from the uniform
// initial temperature, which answers "how fast does the stack heat
// up" — the question steady-state analysis cannot.
//
// Cancellation is cooperative: the context is checked between time
// steps, and ctx.Err() is returned as soon as the context is done.
//
// A step that produces a non-finite temperature (a diverging inner
// iteration, or a NaN injected through the power maps or the
// PowerScale hook) triggers recovery: the integration restarts on the
// recovery rung, the last time with a halved time step, up to
// MaxRecoveries times before giving up with a *ConvergenceError
// wrapping ErrDiverged.
func SolveTransient(ctx context.Context, s *Stack, opt TransientOptions) (*TransientResult, error) {
	w, err := NewWorkspace(s)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	return w.SolveTransient(ctx, opt)
}

// SolveTransient integrates the transient response, reusing the
// workspace's discretization and multigrid hierarchy across every time
// step and recovery attempt. Semantics match the package-level
// SolveTransient.
func (w *Workspace) SolveTransient(ctx context.Context, opt TransientOptions) (*TransientResult, error) {
	if opt.Dt <= 0 || !isFinite(opt.Dt) || opt.Steps <= 0 {
		return nil, fmt.Errorf("thermal: transient needs finite positive Dt and positive Steps, got %g/%d", opt.Dt, opt.Steps)
	}
	if opt.InnerCycles < 0 {
		return nil, fmt.Errorf("thermal: negative InnerCycles %d", opt.InnerCycles)
	}
	opt = opt.withDefaults()
	if opt.Omega <= 0 || opt.Omega >= 2 {
		return nil, fmt.Errorf("thermal: omega %g out of (0,2)", opt.Omega)
	}
	sp := opt.Obs.StartSpan("thermal/transient")
	defer sp.End()

	omega, fineOnly := opt.Omega, false
	dt, steps := opt.Dt, opt.Steps
	for attempt := 0; ; attempt++ {
		res, err := w.transientOnce(ctx, opt, omega, fineOnly, dt, steps, attempt)
		var ce *ConvergenceError
		if errors.As(err, &ce) && ce.Diverged && attempt < opt.MaxRecoveries {
			opt.Obs.Counter("thermal_divergence_retries").Inc()
			omega, fineOnly = dampOmega(omega), true
			if attempt+1 == opt.MaxRecoveries {
				// Last resort: also halve the time step, doubling the
				// step count to preserve the simulated horizon.
				dt /= 2
				steps *= 2
			}
			continue
		}
		return res, err
	}
}

// transientOnce runs one integration attempt: V-cycles at relaxation
// factor omega, or fine-level smoothing sweeps alone when fineOnly.
func (w *Workspace) transientOnce(ctx context.Context, opt TransientOptions, omega float64, fineOnly bool, dt float64, steps, recoveries int) (*TransientResult, error) {
	sv, h := w.sv, w.mg
	initC := sv.s.AmbientC
	if opt.InitialC != 0 {
		initC = opt.InitialC
	}
	sv.reset(initC)
	// The diagonals carry C/dt, which recovery may halve, so each
	// attempt sets them for its own dt.
	h.beginSolve(dt)
	defer h.publish(opt.Obs)

	res := &TransientResult{
		Times:      make([]float64, 0, steps),
		PeakC:      make([]float64, 0, steps),
		StoredJ:    make([]float64, 0, steps),
		Scale:      make([]float64, 0, steps),
		Recoveries: recoveries,
		Dt:         dt,
	}
	prevPeak := initC
	stepCount := opt.Obs.Counter("thermal_steps")
	peakGauge := opt.Obs.Gauge(obs.MetricPeakC)
	nyx := sv.ny * sv.nx
	for step := 1; step <= steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scale := 1.0
		if opt.PowerScale != nil {
			scale = opt.PowerScale(float64(step-1)*dt, prevPeak)
			if scale < 0 {
				scale = 0
			}
		}
		// Implicit Euler right-hand side: q·scale + (C/dt)·T_old, built
		// while t still holds T_old.
		sv.loadRHS(scale, dt)
		lastDelta := 0.0
		for c := 0; c < opt.InnerCycles; c++ {
			h.cycle(omega, fineOnly)
			lastDelta = maxAbsDiff(sv.t, h.tPrev)
			if lastDelta < stagnationK {
				break
			}
		}
		res.Times = append(res.Times, float64(step)*dt)
		// Stored energy is summed plane by plane, in (z, y, x) order,
		// across the column-contiguous temperatures.
		peak := math.Inf(-1)
		stored := 0.0
		for z, c := range sv.capZ {
			for j := 0; j < nyx; j++ {
				v := sv.t[j*sv.nz+z]
				if v > peak {
					peak = v
				}
				stored += c * (v - sv.s.AmbientC)
			}
		}
		// Divergence: a non-finite inner update or temperature means
		// the step polluted the field; the caller restarts damped.
		if !isFinite(lastDelta) || !isFinite(peak) {
			return nil, &ConvergenceError{
				Residual:   lastDelta,
				Sweeps:     step,
				Omega:      omega,
				Recoveries: recoveries,
				Diverged:   true,
			}
		}
		res.PeakC = append(res.PeakC, peak)
		res.StoredJ = append(res.StoredJ, stored)
		res.Scale = append(res.Scale, scale)
		stepCount.Inc()
		peakGauge.Set(peak)
		prevPeak = peak
	}

	res.Final = sv.field(steps)
	res.Final.recoveries = recoveries
	return res, nil
}

// TimeToFraction scans a transient trajectory for the first time the
// peak temperature crosses frac of the way from start to the given
// steady peak; it returns -1 if never reached. Useful for extracting
// thermal time constants (frac = 1 - 1/e = 0.632).
func (r *TransientResult) TimeToFraction(startC, steadyPeakC, frac float64) float64 {
	target := startC + frac*(steadyPeakC-startC)
	for i, p := range r.PeakC {
		if p >= target {
			return r.Times[i]
		}
	}
	return -1
}
