package thermal

import (
	"context"
	"errors"
	"math"

	"diestack/internal/obs"
)

// Workspace holds a discretized stack and its multigrid hierarchy so
// repeated solves — divergence-recovery retries, transient time steps,
// DTM sample loops, sensitivity sweeps over the same geometry — skip
// re-discretization and re-allocation. Power map mutations between
// solves are picked up (sources are re-rasterized per solve); geometry
// or material mutations are not — build a new Workspace for those.
//
// A Workspace is not safe for concurrent use, and the Fields it
// returns own their data, so they remain valid after further solves or
// Close.
type Workspace struct {
	sv *solver
	// mg is the multigrid hierarchy. Its coarse operators depend only
	// on the discretization, which a Workspace never mutates, so it is
	// built once and V-cycles are allocation-free from the first solve.
	mg *mgHier
}

// NewWorkspace validates and discretizes the stack once, for many
// solves.
func NewWorkspace(s *Stack) (*Workspace, error) {
	sv, err := newSolver(s)
	if err != nil {
		return nil, err
	}
	return &Workspace{sv: sv, mg: newMGHier(sv)}, nil
}

// Close marks the end of the workspace's use. A Workspace holds no
// goroutines or OS resources between solves — the helpers that split
// a solve's kernels across cores start and stop inside each attempt,
// and its memory is reclaimed by the garbage collector — so Close does
// nothing, but deferring it keeps callers correct if that ever
// changes. The Workspace must not be used afterwards.
func (w *Workspace) Close() {}

// Solve computes the steady-state field, reusing the workspace's
// discretization and multigrid hierarchy. Semantics match the
// package-level Solve; the context is checked between cycles.
//
// An attempt that diverges is retried on the recovery rung: the
// red-black z-line smoother run alone on the fine level at a damped
// relaxation factor, which converges for any factor in (0,2) on this
// diagonally dominant system.
func (w *Workspace) Solve(ctx context.Context, opt SolveOptions) (*Field, error) {
	opt = opt.withDefaults()
	sp := opt.Obs.StartSpan("thermal/solve")
	defer sp.End()
	omega, fineOnly := opt.Omega, false
	for attempt := 0; ; attempt++ {
		f, err := w.solveOnce(ctx, opt, omega, fineOnly, attempt)
		var ce *ConvergenceError
		if errors.As(err, &ce) && ce.Diverged && attempt < opt.MaxRecoveries {
			opt.Obs.Counter("thermal_divergence_retries").Inc()
			omega, fineOnly = dampOmega(omega), true
			continue
		}
		w.publishSolve(opt.Obs, f)
		return f, err
	}
}

// publishSolve records one finished steady solve into the registry.
func (w *Workspace) publishSolve(reg *obs.Registry, f *Field) {
	if reg == nil {
		return
	}
	reg.Counter("thermal_solves").Inc()
	reg.Gauge("thermal_residual").Set(w.sv.relResidual())
	if f != nil {
		reg.Counter("thermal_sweeps").Add(uint64(f.sweeps))
		reg.Gauge(obs.MetricPeakC).Set(f.Peak())
	}
}

// solveOnce runs one steady solve attempt: V-cycles at relaxation
// factor omega, or fine-level smoothing sweeps alone when fineOnly.
func (w *Workspace) solveOnce(ctx context.Context, opt SolveOptions, omega float64, fineOnly bool, recoveries int) (*Field, error) {
	sv, h := w.sv, w.mg
	sv.reset(sv.s.AmbientC)
	h.beginSolve(0)
	defer h.publish(opt.Obs)
	h.attachCrew()
	defer h.detachCrew()

	// Total boundary conductance, for the constant-mode correction.
	gBoundary := 0.0
	for i := range sv.gTop {
		gBoundary += sv.gTop[i] + sv.gBot[i]
	}

	// Divergence watchdog state: the first cycle's delta anchors the
	// growth test, and grow counts consecutive growing cycles.
	var delta0 float64
	prevDelta := math.Inf(1)
	grow := 0
	converged := false

	cycles := 0
	for ; cycles < opt.MaxCycles; cycles++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h.cycle(omega, fineOnly)

		// Deflate the constant mode: a uniform temperature shift leaves
		// every interior balance unchanged but scales the boundary
		// outflow, so the global energy imbalance can be zeroed exactly.
		// The V-cycle's coarsest level already moves this mode well, but
		// the weakly-coupled boundary makes it converge arbitrarily
		// slowly under fine-level smoothing alone.
		shift := (sv.totalPower - sv.heatOut()) / gBoundary
		for i := range sv.t {
			sv.t[i] += shift
		}
		// The cycle's delta spans the whole cycle plus the shift (coarse
		// corrections land via prolongation, so per-column smoother
		// deltas alone would understate the update).
		maxDelta := maxAbsDiff(sv.t, h.tPrev)

		if cycles == 0 {
			delta0 = maxDelta
		}
		if maxDelta > prevDelta {
			grow++
		} else {
			grow = 0
		}
		prevDelta = maxDelta
		// Divergence: a non-finite update, an update far beyond any
		// physical temperature, or sustained geometric growth well
		// above the starting delta. Legitimate solves shrink deltas
		// from cycle one.
		if !isFinite(maxDelta) || maxDelta > 1e8 || (grow >= 25 && maxDelta > 100*delta0) {
			return nil, &ConvergenceError{
				Residual:   sv.relResidual(),
				Sweeps:     cycles + 1,
				Omega:      omega,
				Recoveries: recoveries,
				Diverged:   true,
			}
		}

		if maxDelta < stagnationK {
			out := sv.heatOut()
			if sv.totalPower == 0 || math.Abs(out-sv.totalPower) <= opt.Tolerance*math.Max(sv.totalPower, 1e-9) {
				cycles++
				converged = true
				break
			}
		}
	}

	f := sv.field(cycles)
	f.recoveries = recoveries
	if !converged {
		return f, &ConvergenceError{
			Residual:   sv.relResidual(),
			Sweeps:     cycles,
			Omega:      omega,
			Recoveries: recoveries,
		}
	}
	return f, nil
}
