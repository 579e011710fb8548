package thermal

import (
	"context"
	"math"

	"diestack/internal/obs"
)

// SolveOptions tunes the solver. Zero values select the defaults.
type SolveOptions struct {
	// MaxCycles bounds the number of iteration cycles (default 4000).
	// One cycle is one V-cycle, or one fine-level smoothing sweep on
	// the recovery rung.
	MaxCycles int
	// Tolerance is the convergence threshold: the solution is accepted
	// when the global energy imbalance |heat out - power in| drops
	// below Tolerance times the injected power AND the per-cycle
	// maximum temperature change is below 1e-4 K (stagnationK)
	// (default 1e-3).
	Tolerance float64
	// Omega relaxes the smoother's z-line updates (default 1.0, exact
	// line Gauss-Seidel). Values at or above 2 make the iteration
	// diverge; the solver detects the blow-up and retries on the
	// recovery rung (see MaxRecoveries).
	Omega float64
	// MaxRecoveries bounds the restarts attempted after a detected
	// divergence (NaN/Inf or sustained residual growth). Each restart
	// runs the red-black z-line smoother alone on the fine level at a
	// damped relaxation factor. Zero selects the default (2); negative
	// disables recovery so a divergence fails immediately with
	// ErrDiverged.
	MaxRecoveries int
	// Obs, when non-nil, receives solver metrics (thermal_solves,
	// thermal_sweeps, thermal_divergence_retries counters; thermal_peak_c
	// and thermal_residual gauges) and a "thermal/solve" span per solve.
	// A nil registry costs nothing.
	Obs *obs.Registry
}

// stagnationK is the per-cycle maximum temperature change, in kelvin,
// below which an iteration has stagnated. A steady solve converges
// once it stagnates and balances energy; every implicit transient step
// ends as soon as it stagnates.
const stagnationK = 1e-4

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxCycles == 0 {
		o.MaxCycles = 4000
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-3
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

// maxCellDZ subdivides thick layers so vertical gradients inside the
// heat sink and board are resolved.
const maxCellDZ = 1e-3

// Field is a solved steady-state temperature distribution. It owns its
// temperature array (copied out of the solver), so it stays valid after
// the Workspace that produced it is reused or closed.
type Field struct {
	stack *Stack
	// zOfLayer[i] lists the z-cell indices belonging to stack layer i.
	zOfLayer [][]int
	nz       int
	t        []float64 // [z][y][x] flattened
	sweeps   int
	// recoveries counts the recovery-rung restarts that were needed to
	// reach this solution (0 for a clean solve).
	recoveries int
	// Boundary conductances retained for HeatOut.
	gTop, gBot []float64 // per lateral cell
}

// solver holds the discretized system. The discretization (grid,
// conductances, capacities) is built once by newSolver; the iteration
// state (t, q) is reinitialized by reset and loadRHS, so one solver
// serves many solves, retries, and transient steps.
//
// Every per-cell array is stored column-contiguous: cell (z, y, x)
// lives at (y*nx+x)*nz + z (see idx), so the smoother's z-line solves
// walk memory at unit stride. Per-lateral-cell arrays are indexed
// y*nx + x.
type solver struct {
	s          *Stack
	nx, ny, nz int
	gv         []float64 // vertical conductance cell -> cell below (z+1)
	gxr        []float64 // lateral conductance cell -> x+1
	gyu        []float64 // lateral conductance cell -> y+1
	gTop, gBot []float64 // boundary conductance per lateral cell
	// q is the right-hand side: the rasterized heat sources (W) of a
	// steady solve, or the implicit-Euler right-hand side of a step.
	q []float64
	t []float64
	// capZ is the heat capacity of one cell of z-plane z in J/K (cells
	// are uniform in x and y, so one value serves the whole plane).
	capZ []float64

	// z discretization retained so power maps can be re-rasterized on
	// every solve and step (power mutations between solves are picked
	// up).
	zLayer   []int     // z-cell -> stack layer index
	srcScale []float64 // per-z fraction of the layer's power map

	zOfLayer   [][]int
	totalPower float64
}

func (sv *solver) idx(z, y, x int) int { return (y*sv.nx+x)*sv.nz + z }

// Solve computes the steady-state temperature field of the stack by
// geometric multigrid (see multigrid.go): V-cycles over a laterally
// coarsened hierarchy with an exact z-line smoother. Die stacks are
// strongly anisotropic — micron-thin layers give enormous vertical
// conductances, and the thick copper sink gives enormous lateral
// ones — so the smoother solves every vertical column exactly and the
// coarse levels remove smooth lateral error. Convergence is accepted
// on global energy balance, not just per-cycle stagnation.
//
// A solve that exhausts its cycle budget without meeting tolerance
// returns the partial field together with a *ConvergenceError wrapping
// ErrNotConverged. A solve whose iteration blows up (NaN/Inf residual
// or sustained residual growth) is restarted on the recovery rung up
// to MaxRecoveries times before giving up with a *ConvergenceError
// wrapping ErrDiverged.
//
// Each call discretizes the stack from scratch; callers solving the
// same geometry repeatedly should keep a Workspace instead.
//
// Cancellation is cooperative: the context is checked between cycles,
// and ctx.Err() is returned as soon as the context is done.
func Solve(ctx context.Context, s *Stack, opt SolveOptions) (*Field, error) {
	w, err := NewWorkspace(s)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	return w.Solve(ctx, opt)
}

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// relResidual returns the relative global energy imbalance
// |heat out - power in| / power in (the absolute imbalance for a
// passive stack).
func (sv *solver) relResidual() float64 {
	imbalance := math.Abs(sv.heatOut() - sv.totalPower)
	if sv.totalPower == 0 {
		return imbalance
	}
	return imbalance / sv.totalPower
}

// field packages the solver's current state. The temperatures are
// copied so the Field survives solver reuse, and transposed on the way
// from the solver's column-contiguous layout to the Field's [z][y][x].
func (sv *solver) field(cycles int) *Field {
	nz, nyx := sv.nz, sv.ny*sv.nx
	t := make([]float64, len(sv.t))
	for j := 0; j < nyx; j++ {
		for z, v := range sv.t[j*nz : (j+1)*nz] {
			t[z*nyx+j] = v
		}
	}
	return &Field{
		stack: sv.s, zOfLayer: sv.zOfLayer, nz: nz,
		t:      t,
		sweeps: cycles,
		gTop:   sv.gTop, gBot: sv.gBot,
	}
}

// newSolver discretizes the stack and precomputes all conductances.
// The result carries no iteration state yet; call reset before solving.
func newSolver(s *Stack) (*solver, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}

	nx, ny := s.Nx, s.Ny
	dx := s.Width / float64(nx)
	dy := s.Height / float64(ny)
	area := dx * dy

	// Build the z discretization.
	var dz []float64
	var zLayer []int // z-cell -> stack layer index
	var srcScale []float64
	zOfLayer := make([][]int, len(s.Layers))
	for li, l := range s.Layers {
		n := int(math.Ceil(l.Thickness / maxCellDZ))
		if n < 1 {
			n = 1
		}
		for c := 0; c < n; c++ {
			zOfLayer[li] = append(zOfLayer[li], len(dz))
			dz = append(dz, l.Thickness/float64(n))
			zLayer = append(zLayer, li)
			srcScale = append(srcScale, 1/float64(n))
		}
	}
	nz := len(dz)
	cells := nz * ny * nx

	sv := &solver{s: s, nx: nx, ny: ny, nz: nz}
	sv.zOfLayer = zOfLayer
	sv.zLayer = zLayer
	sv.srcScale = srcScale

	// kPlane fills dst with the conductivity of every cell of z-plane z,
	// honoring bounded layer extents. Boundary cells that partially
	// overlap the extent get an area-weighted conductivity, keeping the
	// material mask consistent with area-weighted power rasterization
	// (otherwise block power can land in a cell classified as
	// near-insulating filler). Only two planes are live at a time, so
	// no per-cell conductivity array is ever allocated.
	kPlane := func(z int, dst []float64) {
		l := &s.Layers[zLayer[z]]
		kin := l.Material.Conductivity
		kout := kin
		if l.bounded() {
			kout = EpoxyFill.Conductivity
		}
		for y := 0; y < ny; y++ {
			y0 := float64(y) * dy
			for x := 0; x < nx; x++ {
				kk := kin
				if l.bounded() {
					x0 := float64(x) * dx
					ox := math.Min(l.Extent.X+l.Extent.W, x0+dx) - math.Max(l.Extent.X, x0)
					oy := math.Min(l.Extent.Y+l.Extent.H, y0+dy) - math.Max(l.Extent.Y, y0)
					frac := 0.0
					if ox > 0 && oy > 0 {
						frac = (ox * oy) / (dx * dy)
					}
					kk = frac*kin + (1-frac)*kout
				}
				dst[y*nx+x] = kk
			}
		}
	}

	// Precomputed conductances, sweeping z with the conductivities of
	// the current plane (k) and the one below it (kBelow).
	sv.gv = make([]float64, cells)
	sv.gxr = make([]float64, cells)
	sv.gyu = make([]float64, cells)
	sv.gTop = make([]float64, ny*nx)
	sv.gBot = make([]float64, ny*nx)
	k, kBelow := make([]float64, ny*nx), make([]float64, ny*nx)
	kPlane(0, k)
	for z := 0; z < nz; z++ {
		if z < nz-1 {
			kPlane(z+1, kBelow)
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := sv.idx(z, y, x)
				j := y*nx + x
				if z < nz-1 {
					sv.gv[i] = area / (dz[z]/(2*k[j]) + dz[z+1]/(2*kBelow[j]))
				}
				if x < nx-1 {
					sv.gxr[i] = dz[z] * dy / (dx/(2*k[j]) + dx/(2*k[j+1]))
				}
				if y < ny-1 {
					sv.gyu[i] = dz[z] * dx / (dy/(2*k[j]) + dy/(2*k[j+nx]))
				}
				if z == 0 && s.TopH > 0 {
					sv.gTop[j] = area / (dz[0]/(2*k[j]) + 1/s.TopH)
				}
				if z == nz-1 && s.BottomH > 0 {
					sv.gBot[j] = area / (dz[nz-1]/(2*k[j]) + 1/s.BottomH)
				}
			}
		}
		k, kBelow = kBelow, k
	}

	sv.capZ = make([]float64, nz)
	for z := range sv.capZ {
		sv.capZ[z] = s.Layers[zLayer[z]].Material.heatCapacity() * area * dz[z]
	}

	sv.q = make([]float64, cells)
	sv.t = make([]float64, cells)
	return sv, nil
}

// loadRHS rasterizes the stack's current power maps into the
// right-hand side, scaled by scale, and records the unscaled total
// power. For an implicit-Euler step of length dt > 0 it adds the
// capacity term (C/dt)·T of the current temperatures — the previous
// step's field, which the step's iterations then overwrite. A steady
// solve passes scale 1 and dt 0.
func (sv *solver) loadRHS(scale, dt float64) {
	total := 0.0
	for z := 0; z < sv.nz; z++ {
		cod := 0.0
		if dt > 0 {
			cod = sv.capZ[z] / dt
		}
		pm := sv.s.Layers[sv.zLayer[z]].Power
		src := sv.srcScale[z]
		for y := 0; y < sv.ny; y++ {
			for x := 0; x < sv.nx; x++ {
				i := sv.idx(z, y, x)
				w := 0.0
				if pm != nil {
					w = pm.At(x, y) * src
				}
				total += w
				sv.q[i] = w*scale + cod*sv.t[i]
			}
		}
	}
	sv.totalPower = total
}

// reset reinitializes the iteration state for a fresh solve attempt:
// uniform initial temperatures and the steady sources.
func (sv *solver) reset(initC float64) {
	for i := range sv.t {
		sv.t[i] = initC
	}
	sv.loadRHS(1, 0)
}

// heatOut integrates convective outflow at both boundary faces.
func (sv *solver) heatOut() float64 {
	total := 0.0
	amb := sv.s.AmbientC
	for y := 0; y < sv.ny; y++ {
		for x := 0; x < sv.nx; x++ {
			if g := sv.gTop[y*sv.nx+x]; g > 0 {
				total += g * (sv.t[sv.idx(0, y, x)] - amb)
			}
			if g := sv.gBot[y*sv.nx+x]; g > 0 {
				total += g * (sv.t[sv.idx(sv.nz-1, y, x)] - amb)
			}
		}
	}
	return total
}

// Sweeps returns how many iteration cycles (V-cycles, or fine-level
// smoothing sweeps on the recovery rung) the solution took.
func (f *Field) Sweeps() int { return f.sweeps }

// Recoveries returns how many recovery-rung restarts were needed
// before this solution converged (0 for a clean solve).
func (f *Field) Recoveries() int { return f.recoveries }

// Peak returns the hottest temperature anywhere in the stack.
func (f *Field) Peak() float64 {
	peak := math.Inf(-1)
	for _, v := range f.t {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Min returns the coldest temperature anywhere in the stack.
func (f *Field) Min() float64 {
	low := math.Inf(1)
	for _, v := range f.t {
		if v < low {
			low = v
		}
	}
	return low
}

// LayerPeak returns the hottest temperature within stack layer li.
func (f *Field) LayerPeak(li int) float64 {
	nx, ny := f.stack.Nx, f.stack.Ny
	peak := math.Inf(-1)
	for _, z := range f.zOfLayer[li] {
		for i := z * ny * nx; i < (z+1)*ny*nx; i++ {
			if f.t[i] > peak {
				peak = f.t[i]
			}
		}
	}
	return peak
}

// LayerMap returns layer li's lateral temperature map (averaged over
// the layer's z cells), indexed [y][x].
func (f *Field) LayerMap(li int) [][]float64 {
	nx, ny := f.stack.Nx, f.stack.Ny
	zs := f.zOfLayer[li]
	out := make([][]float64, ny)
	for y := range out {
		out[y] = make([]float64, nx)
		for x := 0; x < nx; x++ {
			sum := 0.0
			for _, z := range zs {
				sum += f.t[(z*ny+y)*nx+x]
			}
			out[y][x] = sum / float64(len(zs))
		}
	}
	return out
}

// At returns the temperature of layer li at lateral cell (x, y),
// averaged over the layer's z cells.
func (f *Field) At(li, x, y int) float64 {
	nx, ny := f.stack.Nx, f.stack.Ny
	sum := 0.0
	zs := f.zOfLayer[li]
	for _, z := range zs {
		sum += f.t[(z*ny+y)*nx+x]
	}
	return sum / float64(len(zs))
}

// LayerPeakMinIn returns the coldest temperature of layer li within
// the lateral rectangle r.
func (f *Field) LayerPeakMinIn(li int, r Rect) float64 {
	s := f.stack
	dx := s.Width / float64(s.Nx)
	dy := s.Height / float64(s.Ny)
	low := math.Inf(1)
	for y := 0; y < s.Ny; y++ {
		cy := (float64(y) + 0.5) * dy
		if cy < r.Y || cy >= r.Y+r.H {
			continue
		}
		for x := 0; x < s.Nx; x++ {
			cx := (float64(x) + 0.5) * dx
			if cx < r.X || cx >= r.X+r.W {
				continue
			}
			if v := f.At(li, x, y); v < low {
				low = v
			}
		}
	}
	return low
}

// HeatOut integrates the convective heat flow leaving both boundary
// faces in watts; at steady state it matches the injected power
// (energy conservation).
func (f *Field) HeatOut() float64 {
	s := f.stack
	nx, ny := s.Nx, s.Ny
	total := 0.0
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if g := f.gTop[y*nx+x]; g > 0 {
				total += g * (f.t[(0*ny+y)*nx+x] - s.AmbientC)
			}
			if g := f.gBot[y*nx+x]; g > 0 {
				total += g * (f.t[((f.nz-1)*ny+y)*nx+x] - s.AmbientC)
			}
		}
	}
	return total
}
