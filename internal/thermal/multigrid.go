// Geometric multigrid: the solver's one iteration schedule, for steady
// solves and for every implicit transient step. The die stack's
// discretization is extremely anisotropic: micron-thin layers give
// vertical conductances orders of magnitude above the lateral ones, so
// pointwise smoothing cannot work. Multigrid attacks the two slow
// error families separately:
//
//   - Tightly coupled z columns are solved *exactly* by the smoother:
//     red-black z-line Gauss-Seidel (a tridiagonal Thomas solve per
//     lateral cell, checkerboard-colored so same-color columns share
//     no lateral face). Within one color every column is independent,
//     which makes the sweep order-free, trivially deterministic, and
//     amenable to a cache-blocked tile layout.
//   - Smooth lateral error is eliminated on a hierarchy of laterally
//     coarsened grids (the z discretization is never coarsened — it is
//     already handled exactly): finite-volume full-weighting
//     restriction of the residual over each 2x2 lateral aggregate,
//     re-aggregated interface conductances for the coarse operators,
//     bilinear (per-z-plane, so trilinear degenerated along the
//     uncoarsened axis) prolongation of the correction, and a
//     relaxed-to-stagnation solve on the coarsest level.
//
// One V-cycle costs a small constant number of z-line sweeps (the
// lateral coarsening gives a geometric 1 + 1/4 + 1/16 + ... work sum),
// and contracts the error by a grid-independent factor, so solves
// converge in tens of cycles.
//
// Footprint: the fine level aliases the solver's five per-cell arrays
// (three conductances, temperatures, right-hand side) and adds one, the
// pre-cycle snapshot tPrev. Each coarse level holds five arrays (three
// conductances, correction, right-hand side) at a quarter of the cells
// of the level above, under two fine-level arrays across the whole
// hierarchy. Neither the operator diagonal nor the residual is stored:
// the diagonal is summed from the conductances the kernels load anyway,
// plus a per-z-plane capacity term, and the residual is computed inside
// the restriction.
//
// The hierarchy is allocated once per Workspace and reused by every
// later solve, retry, transient step, and DTM sample; a V-cycle
// performs zero allocations (TestMultigridVCycleAllocs pins this, and
// the smoother and transfer kernels are //stacklint:hotpath-checked).
package thermal

import (
	"fmt"
	"math"

	"diestack/internal/obs"
)

const (
	// mgCoarsestLateral stops the lateral coarsening: levels are added
	// while both lateral dimensions exceed it.
	mgCoarsestLateral = 4
	// mgPreSweeps / mgPostSweeps are the red-black z-line smoothing
	// sweeps before restriction and after prolongation.
	mgPreSweeps  = 1
	mgPostSweeps = 1
	// mgCoarseMaxSweeps bounds the coarsest-level relaxation;
	// mgCoarseReduction is the per-solve delta reduction that ends it
	// early (the coarsest grid is a few lateral cells, so this is
	// cheap either way).
	mgCoarseMaxSweeps = 64
	mgCoarseReduction = 1e-4
	// mgTile is the lateral tile edge of the cache-blocked smoother
	// sweep: neighbor columns revisit each other's cache lines while
	// they are still resident.
	mgTile = 16
)

// mgLevel is one grid of the multigrid hierarchy. Level 0 aliases the
// fine solver's arrays (temperatures, right-hand side, conductances),
// so smoothing the fine level *is* iterating the real system; coarser
// levels own their aggregated copies and solve the error equation
// A·e = r, which has zero ambient (the boundary data lives in the
// restricted residual).
type mgLevel struct {
	nx, ny, nz int
	gv         []float64 // vertical conductance cell -> cell below (z+1)
	gxr        []float64 // lateral conductance cell -> x+1
	gyu        []float64 // lateral conductance cell -> y+1
	gTop, gBot []float64 // boundary conductance per lateral cell
	// fine counts the fine-level lateral cells aggregated into each
	// lateral cell (1 on level 0), which scales the capacity term.
	fine []float64
	// codZ is the capacity term C/dt of one fine cell in each z-plane
	// (all zero for steady solves), shared by every level.
	codZ []float64
	t    []float64 // unknown: temperature (level 0) or error correction
	q    []float64 // right-hand side: sources (level 0) or restricted residual
	amb  float64   // ambient boundary temperature (0 on coarse levels)
	sc   *lineScratch
}

func (lv *mgLevel) idx(z, y, x int) int { return (z*lv.ny+y)*lv.nx + x }

// relaxColumn solves the z-column at (y, x) exactly with lateral
// neighbors fixed — one tridiagonal Thomas solve — and writes the
// (possibly relaxed) update back, returning the column's largest
// temperature change. This is the smoother kernel; at omega 1 (the
// default) the column lands exactly on its line-Gauss-Seidel value.
//
//stacklint:hotpath
func (lv *mgLevel) relaxColumn(sc *lineScratch, y, x int, omega float64) float64 {
	nx, ny, nz := lv.nx, lv.ny, lv.nz
	nyx := ny * nx
	amb := lv.amb
	j := y*nx + x
	for z := 0; z < nz; z++ {
		i := (z*ny+y)*nx + x
		r := lv.q[i]
		d := 0.0
		if z > 0 {
			g := lv.gv[i-nyx]
			sc.sub[z] = -g
			d += g
		} else {
			g := lv.gTop[j]
			sc.sub[z] = 0
			d += g
			r += g * amb
		}
		if z < nz-1 {
			g := lv.gv[i]
			sc.sup[z] = -g
			d += g
		} else {
			g := lv.gBot[j]
			sc.sup[z] = 0
			d += g
			r += g * amb
		}
		if x > 0 {
			g := lv.gxr[i-1]
			d += g
			r += g * lv.t[i-1]
		}
		if x < nx-1 {
			g := lv.gxr[i]
			d += g
			r += g * lv.t[i+1]
		}
		if y > 0 {
			g := lv.gyu[i-nx]
			d += g
			r += g * lv.t[i-nx]
		}
		if y < ny-1 {
			g := lv.gyu[i]
			d += g
			r += g * lv.t[i+nx]
		}
		if c := lv.codZ[z]; c != 0 {
			d += c * lv.fine[j]
		}
		sc.diag[z] = d
		sc.rhs[z] = r
	}
	sc.thomas(nz)
	md := 0.0
	for z := 0; z < nz; z++ {
		i := (z*ny+y)*nx + x
		nv := lv.t[i] + omega*(sc.dp[z]-lv.t[i])
		if dlt := math.Abs(nv - lv.t[i]); dlt > md {
			md = dlt
		}
		lv.t[i] = nv
	}
	return md
}

// smoothColor relaxes every z-column of one checkerboard color
// ((x+y) mod 2 == color) in a cache-blocked tile order. Same-color
// columns share no lateral face, so they are mutually independent and
// the tile order changes nothing about the result — it only keeps
// neighboring columns' cache lines resident. Returns the sweep's
// largest temperature change.
//
//stacklint:hotpath
func (lv *mgLevel) smoothColor(color int, omega float64) float64 {
	nx, ny := lv.nx, lv.ny
	sc := lv.sc
	maxDelta := 0.0
	for yt := 0; yt < ny; yt += mgTile {
		yHi := yt + mgTile
		if yHi > ny {
			yHi = ny
		}
		for xt := 0; xt < nx; xt += mgTile {
			xHi := xt + mgTile
			if xHi > nx {
				xHi = nx
			}
			for y := yt; y < yHi; y++ {
				for x := xt + (((xt + y) & 1) ^ color); x < xHi; x += 2 {
					if d := lv.relaxColumn(sc, y, x, omega); d > maxDelta {
						maxDelta = d
					}
				}
			}
		}
	}
	return maxDelta
}

// smoothSweep runs one full red-black smoothing sweep (both colors)
// and returns the largest temperature change.
//
//stacklint:hotpath
func (lv *mgLevel) smoothSweep(omega float64) float64 {
	d0 := lv.smoothColor(0, omega)
	d1 := lv.smoothColor(1, omega)
	if d1 > d0 {
		return d1
	}
	return d0
}

// solveCoarsest relaxes the level to stagnation: red-black z-line
// sweeps until the per-sweep delta has dropped by mgCoarseReduction
// from the first sweep (or mgCoarseMaxSweeps). On a lateral grid of a
// few cells this is effectively a direct solve at negligible cost.
func (lv *mgLevel) solveCoarsest(omega float64) uint64 {
	var d0 float64
	for s := 1; s <= mgCoarseMaxSweeps; s++ {
		d := lv.smoothSweep(omega)
		if s == 1 {
			d0 = d
		}
		if d == 0 || d <= mgCoarseReduction*d0 || !isFinite(d) {
			return uint64(s)
		}
	}
	return mgCoarseMaxSweeps
}

// coarseDim halves a lateral dimension (rounding up, so odd sizes
// coarsen too); dimensions at or below mgCoarsestLateral stay.
func coarseDim(n int) int {
	if n > mgCoarsestLateral {
		return (n + 1) / 2
	}
	return n
}

// fineLo returns the first fine index covered by coarse index c, and
// fineHi the last (a coarse cell covers fine {2c, 2c+1}, clipped at an
// odd edge).
func fineLo(c int) int { return 2 * c }

func fineHi(c, n int) int {
	hi := 2*c + 1
	if hi > n-1 {
		hi = n - 1
	}
	return hi
}

// coarsen builds the next-coarser level from f by finite-volume
// aggregation of 2x2 lateral cell groups: conductances crossing a
// coarse interface are the sums of the fine conductances crossing it,
// boundary conductances and fine-cell counts aggregate the same way,
// and conductances interior to an aggregate drop out (they connect
// cells that merged). The z discretization is kept as is. The result
// is the same M-matrix family as the fine operator, so the smoother
// and the recursion apply unchanged.
func coarsen(f *mgLevel) *mgLevel {
	nxc, nyc := coarseDim(f.nx), coarseDim(f.ny)
	nz := f.nz
	cells := nz * nyc * nxc
	c := &mgLevel{
		nx: nxc, ny: nyc, nz: nz,
		gv:   make([]float64, cells),
		gxr:  make([]float64, cells),
		gyu:  make([]float64, cells),
		gTop: make([]float64, nyc*nxc),
		gBot: make([]float64, nyc*nxc),
		fine: make([]float64, nyc*nxc),
		codZ: f.codZ,
		t:    make([]float64, cells),
		q:    make([]float64, cells),
		amb:  0,
		sc:   newLineScratch(nz),
	}
	for Y := 0; Y < nyc; Y++ {
		yLo, yHi := fineLo(Y), fineHi(Y, f.ny)
		for X := 0; X < nxc; X++ {
			xLo, xHi := fineLo(X), fineHi(X, f.nx)
			// Boundary conductances and cell counts: sum over the
			// aggregate's footprint.
			var top, bot, n float64
			for y := yLo; y <= yHi; y++ {
				for x := xLo; x <= xHi; x++ {
					top += f.gTop[y*f.nx+x]
					bot += f.gBot[y*f.nx+x]
					n += f.fine[y*f.nx+x]
				}
			}
			c.gTop[Y*nxc+X] = top
			c.gBot[Y*nxc+X] = bot
			c.fine[Y*nxc+X] = n
			for z := 0; z < nz; z++ {
				i := c.idx(z, Y, X)
				// Vertical: every fine column in the aggregate crosses the
				// same z interface.
				var gv float64
				for y := yLo; y <= yHi; y++ {
					for x := xLo; x <= xHi; x++ {
						gv += f.gv[f.idx(z, y, x)]
					}
				}
				c.gv[i] = gv
				// Lateral x: the coarse interface X -> X+1 is the fine
				// interface 2X+1 -> 2X+2, crossed once per covered fine
				// row. The face area is the sum of the fine faces, but the
				// coarse cell centers sit twice as far apart, so the
				// conductance is the fine sum halved (summing alone would
				// leave the coarse operator laterally stiff by 2x per
				// level, compounding into grid-dependent convergence).
				if X < nxc-1 {
					var g float64
					for y := yLo; y <= yHi; y++ {
						g += f.gxr[f.idx(z, y, 2*X+1)]
					}
					c.gxr[i] = g / 2
				}
				if Y < nyc-1 {
					var g float64
					for x := xLo; x <= xHi; x++ {
						g += f.gyu[f.idx(z, 2*Y+1, x)]
					}
					c.gyu[i] = g / 2
				}
			}
		}
	}
	return c
}

// restrictResidual computes the fine level's pointwise defect q - A·t
// (watts per cell, convective boundary terms included) and sums it
// over each 2x2 lateral aggregate into the coarse right-hand side:
// full weighting, fused with the residual so no per-cell residual
// array exists. For this finite-volume discretization the defect is a
// power, so the aggregate's defect is the exact sum of its members'.
// The coarse unknown (the error correction) starts at zero.
//
//stacklint:hotpath
func restrictResidual(f, c *mgLevel) {
	for i := range c.q {
		c.q[i] = 0
		c.t[i] = 0
	}
	nx, ny, nz := f.nx, f.ny, f.nz
	nyx := ny * nx
	amb := f.amb
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			row := (z*c.ny + y/2) * c.nx
			for x := 0; x < nx; x++ {
				i := (z*ny+y)*nx + x
				j := y*nx + x
				// The diagonal, summed in relaxColumn's order.
				d := 0.0
				if z > 0 {
					d += f.gv[i-nyx]
				} else {
					d += f.gTop[j]
				}
				if z < nz-1 {
					d += f.gv[i]
				} else {
					d += f.gBot[j]
				}
				if x > 0 {
					d += f.gxr[i-1]
				}
				if x < nx-1 {
					d += f.gxr[i]
				}
				if y > 0 {
					d += f.gyu[i-nx]
				}
				if y < ny-1 {
					d += f.gyu[i]
				}
				if cod := f.codZ[z]; cod != 0 {
					d += cod * f.fine[j]
				}
				r := f.q[i] - d*f.t[i]
				if z > 0 {
					r += f.gv[i-nyx] * f.t[i-nyx]
				} else {
					r += f.gTop[j] * amb
				}
				if z < nz-1 {
					r += f.gv[i] * f.t[i+nyx]
				} else {
					r += f.gBot[j] * amb
				}
				if x > 0 {
					r += f.gxr[i-1] * f.t[i-1]
				}
				if x < nx-1 {
					r += f.gxr[i] * f.t[i+1]
				}
				if y > 0 {
					r += f.gyu[i-nx] * f.t[i-nx]
				}
				if y < ny-1 {
					r += f.gyu[i] * f.t[i+nx]
				}
				c.q[row+x/2] += r
			}
		}
	}
}

// prolongAdd interpolates the coarse correction bilinearly in the
// lateral plane (identity along z, which is never coarsened — the
// trilinear stencil degenerated along the exact axis) and adds it to
// the fine unknown. Cell-centered weights: 3/4 toward the parent cell,
// 1/4 toward the lateral neighbor on each axis, collapsing to the
// parent at the domain edge.
//
//stacklint:hotpath
func prolongAdd(c, f *mgLevel) {
	nx, ny, nz := f.nx, f.ny, f.nz
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			Y := y / 2
			Yn := Y + ((y&1)<<1 - 1) // y even: Y-1, y odd: Y+1
			if Yn < 0 || Yn > c.ny-1 {
				Yn = Y
			}
			rowP := (z*c.ny + Y) * c.nx
			rowN := (z*c.ny + Yn) * c.nx
			for x := 0; x < nx; x++ {
				X := x / 2
				Xn := X + ((x&1)<<1 - 1)
				if Xn < 0 || Xn > c.nx-1 {
					Xn = X
				}
				e := 0.5625*c.t[rowP+X] + 0.1875*(c.t[rowP+Xn]+c.t[rowN+X]) + 0.0625*c.t[rowN+Xn]
				f.t[(z*ny+y)*nx+x] += e
			}
		}
	}
}

// mgHier is a Workspace's multigrid hierarchy, built once from the
// solver's discretization and reused by every solve after that. Level
// 0 aliases the solver's arrays, so the hierarchy always iterates the
// workspace's current sources and temperatures.
type mgHier struct {
	levels []*mgLevel
	// capZ is the fine cell heat capacity per z-plane (the solver's);
	// codZ is capZ/dt for the current attempt, shared by every level.
	capZ, codZ []float64
	// tPrev snapshots the fine temperatures before each cycle so the
	// per-cycle max delta (the stagnation test) covers the whole cycle,
	// including coarse corrections and the constant-mode shift.
	tPrev []float64
	// sweepNames are the per-level obs counter names (prebuilt so
	// publishing never formats on a solve path).
	sweepNames []string
	// sweeps and cycles tally the current solve attempt, published via
	// publish at the end of the attempt.
	sweeps []uint64
	cycles uint64
}

// newMGHier builds the hierarchy for sv's discretization.
func newMGHier(sv *solver) *mgHier {
	cells := sv.nz * sv.ny * sv.nx
	codZ := make([]float64, sv.nz)
	fine := &mgLevel{
		nx: sv.nx, ny: sv.ny, nz: sv.nz,
		gv: sv.gv, gxr: sv.gxr, gyu: sv.gyu,
		gTop: sv.gTop, gBot: sv.gBot,
		fine: make([]float64, sv.ny*sv.nx),
		codZ: codZ,
		t:    sv.t,
		q:    sv.q,
		amb:  sv.s.AmbientC,
		sc:   newLineScratch(sv.nz),
	}
	for i := range fine.fine {
		fine.fine[i] = 1
	}
	levels := []*mgLevel{fine}
	for {
		last := levels[len(levels)-1]
		if coarseDim(last.nx) == last.nx || coarseDim(last.ny) == last.ny {
			break
		}
		levels = append(levels, coarsen(last))
	}
	names := make([]string, len(levels))
	for i := range names {
		names[i] = fmt.Sprintf("thermal_mg_sweeps_l%d", i)
	}
	return &mgHier{
		levels:     levels,
		capZ:       sv.capZ,
		codZ:       codZ,
		tPrev:      make([]float64, cells),
		sweepNames: names,
		sweeps:     make([]uint64, len(levels)),
	}
}

// beginSolve prepares the hierarchy for one solve attempt with time
// step dt (0 for a steady solve): set the capacity term every level's
// diagonal carries, and reset the attempt's tallies.
func (h *mgHier) beginSolve(dt float64) {
	for z, c := range h.capZ {
		h.codZ[z] = 0
		if dt > 0 {
			h.codZ[z] = c / dt
		}
	}
	for i := range h.sweeps {
		h.sweeps[i] = 0
	}
	h.cycles = 0
}

// cycle snapshots the fine temperatures into tPrev and runs one
// iteration cycle: a V-cycle normally, or — on the recovery rung,
// fineOnly — one red-black z-line sweep of the fine level alone. The
// caller measures the cycle's change against tPrev (after any
// constant-mode shift of its own).
func (h *mgHier) cycle(omega float64, fineOnly bool) {
	fine := h.levels[0]
	copy(h.tPrev, fine.t)
	if fineOnly {
		fine.smoothSweep(omega)
		h.sweeps[0]++
		return
	}
	h.vcycle(omega)
}

// vcycle runs one V-cycle: pre-smooth / restrict down the hierarchy,
// relax the coarsest level to stagnation, prolong / post-smooth back
// up. omega relaxes the smoother's line updates (1 = exact line
// Gauss-Seidel, the default).
func (h *mgHier) vcycle(omega float64) {
	n := len(h.levels)
	for l := 0; l < n-1; l++ {
		lv := h.levels[l]
		for s := 0; s < mgPreSweeps; s++ {
			lv.smoothSweep(omega)
		}
		h.sweeps[l] += mgPreSweeps
		restrictResidual(lv, h.levels[l+1])
	}
	h.sweeps[n-1] += h.levels[n-1].solveCoarsest(omega)
	for l := n - 2; l >= 0; l-- {
		lv := h.levels[l]
		prolongAdd(h.levels[l+1], lv)
		for s := 0; s < mgPostSweeps; s++ {
			lv.smoothSweep(omega)
		}
		h.sweeps[l] += mgPostSweeps
	}
	h.cycles++
}

// publish records the attempt's V-cycle and per-level sweep tallies.
// A nil registry costs nothing.
func (h *mgHier) publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("thermal_mg_cycles").Add(h.cycles)
	for i, name := range h.sweepNames {
		reg.Counter(name).Add(h.sweeps[i])
	}
}

// maxAbsDiff returns the largest |a[i]-b[i]|.
//
//stacklint:hotpath
func maxAbsDiff(a, b []float64) float64 {
	md := 0.0
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > md {
			md = d
		}
	}
	return md
}
