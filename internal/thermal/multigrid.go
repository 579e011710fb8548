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
//     which makes the sweep order-free and trivially deterministic, and
//     lets the smoother solve several columns at once with their
//     Thomas divide chains interleaved.
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
// the restriction. Every per-cell array on every level is stored
// column-contiguous — cell (z, y, x) at (y*nx+x)*nz + z — so a z-line
// solve reads each of its arrays at unit stride; the only other
// per-level storage is the smoother's scratch, five arrays of
// mgLanes·nz values.
//
// The hierarchy is allocated once per Workspace and reused by every
// later solve, retry, transient step, and DTM sample; a V-cycle
// performs zero allocations (TestMultigridVCycleAllocs pins this for
// the cycle and its convergence delta).
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
	// mgLanes is the number of same-color z-columns the smoother
	// relaxes together, their Thomas solves interleaved.
	mgLanes = 4
)

// mgLevel is one grid of the multigrid hierarchy. Level 0 aliases the
// fine solver's arrays (temperatures, right-hand side, conductances),
// so smoothing the fine level *is* iterating the real system; coarser
// levels own their aggregated copies and solve the error equation
// A·e = r, which has zero ambient (the boundary data lives in the
// restricted residual). Per-cell arrays are column-contiguous, like
// the solver's: cell (z, y, x) lives at (y*nx+x)*nz + z.
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

func (lv *mgLevel) idx(z, y, x int) int { return (y*lv.nx+x)*lv.nz + z }

// lineScratch holds the tridiagonal systems of up to mgLanes z-columns
// solved together, lane k in [k*nz, (k+1)*nz) of every array. No
// subdiagonal is stored: row z's subdiagonal is sup[z-1], the same
// vertical conductance seen from the other side.
type lineScratch struct {
	diag, sup, rhs, cp, dp []float64
}

func newLineScratch(nz int) *lineScratch {
	n := mgLanes * nz
	return &lineScratch{
		diag: make([]float64, n), sup: make([]float64, n), rhs: make([]float64, n),
		cp: make([]float64, n), dp: make([]float64, n),
	}
}

// thomas solves the first lanes systems of length n into dp. Row by
// row it steps every lane once, so the lanes' independent divide
// chains overlap; each lane performs exactly the operations of a
// single-column Thomas solve.
func (sc *lineScratch) thomas(n, lanes int) {
	diag, sup, rhs, cp, dp := sc.diag, sc.sup, sc.rhs, sc.cp, sc.dp
	end := lanes * n
	for o := 0; o < end; o += n {
		cp[o] = sup[o] / diag[o]
		dp[o] = rhs[o] / diag[o]
	}
	for i := 1; i < n; i++ {
		for o := i; o < end; o += n {
			sub := sup[o-1]
			m := diag[o] - sub*cp[o-1]
			cp[o] = sup[o] / m
			dp[o] = (rhs[o] - sub*dp[o-1]) / m
		}
	}
	for i := n - 2; i >= 0; i-- {
		for o := i; o < end; o += n {
			dp[o] -= cp[o] * dp[o+1]
		}
	}
}

// assemble loads lane k of the scratch with the tridiagonal system of
// the z-column at (y, x), lateral neighbors fixed. The lateral edge
// tests are made once per column: each present neighbor is one pass
// down the column. Every row sums its diagonal and right-hand side in
// one fixed order — vertical, x, y, capacity — which restrictResidual
// repeats.
func (lv *mgLevel) assemble(k, y, x int) {
	nx, nz := lv.nx, lv.nz
	j := y*nx + x
	b := j * nz
	o := k * nz
	diag, sup, rhs := lv.sc.diag[o:o+nz], lv.sc.sup[o:o+nz], lv.sc.rhs[o:o+nz]
	gv, q := lv.gv[b:b+nz], lv.q[b:b+nz]
	gTop, gBot, amb := lv.gTop[j], lv.gBot[j], lv.amb
	for z := range diag {
		d, r := 0.0, q[z]
		if z > 0 {
			d += gv[z-1]
		} else {
			d += gTop
			r += gTop * amb
		}
		if z < nz-1 {
			g := gv[z]
			sup[z] = -g
			d += g
		} else {
			sup[z] = 0
			d += gBot
			r += gBot * amb
		}
		diag[z], rhs[z] = d, r
	}
	nxz := nx * nz
	if x > 0 {
		addNeighbor(diag, rhs, lv.gxr[b-nz:b], lv.t[b-nz:b])
	}
	if x < nx-1 {
		addNeighbor(diag, rhs, lv.gxr[b:b+nz], lv.t[b+nz:b+2*nz])
	}
	if y > 0 {
		addNeighbor(diag, rhs, lv.gyu[b-nxz:b-nxz+nz], lv.t[b-nxz:b-nxz+nz])
	}
	if y < lv.ny-1 {
		addNeighbor(diag, rhs, lv.gyu[b:b+nz], lv.t[b+nxz:b+nxz+nz])
	}
	n := lv.fine[j]
	for z, c := range lv.codZ {
		if c != 0 {
			diag[z] += c * n
		}
	}
}

// addNeighbor adds one lateral neighbor column's coupling to a z-line
// system: conductance g to the diagonal, g·t to the right-hand side.
func addNeighbor(diag, rhs, g, t []float64) {
	rhs, g, t = rhs[:len(diag)], g[:len(diag)], t[:len(diag)]
	for z := range diag {
		diag[z] += g[z]
		rhs[z] += g[z] * t[z]
	}
}

// update writes lane k's solution into the z-column at (y, x),
// relaxed by omega, and returns the column's largest temperature
// change. At omega 1 (the default) the column lands exactly on its
// line-Gauss-Seidel value.
func (lv *mgLevel) update(k, y, x int, omega float64) float64 {
	nz := lv.nz
	b := (y*lv.nx + x) * nz
	t := lv.t[b : b+nz]
	dp := lv.sc.dp[k*nz : (k+1)*nz]
	md := 0.0
	for z, old := range t {
		nv := old + omega*(dp[z]-old)
		if dlt := math.Abs(nv - old); dlt > md {
			md = dlt
		}
		t[z] = nv
	}
	return md
}

// smoothColor relaxes every z-column of one checkerboard color
// ((x+y) mod 2 == color): each column is solved exactly, one
// tridiagonal Thomas solve, with its lateral neighbors fixed. Same-color
// columns share no lateral face, so they are mutually independent, and
// each row relaxes them mgLanes at a time (fewer at the row's end) with
// their Thomas solves interleaved; the grouping changes no result.
// Returns the sweep's largest temperature change.
func (lv *mgLevel) smoothColor(color int, omega float64) float64 {
	nx, ny, nz := lv.nx, lv.ny, lv.nz
	maxDelta := 0.0
	for y := 0; y < ny; y++ {
		for x := (y & 1) ^ color; x < nx; x += 2 * mgLanes {
			lanes := min(mgLanes, (nx-x+1)/2)
			for k := 0; k < lanes; k++ {
				lv.assemble(k, y, x+2*k)
			}
			lv.sc.thomas(nz, lanes)
			for k := 0; k < lanes; k++ {
				if d := lv.update(k, y, x+2*k, omega); d > maxDelta {
					maxDelta = d
				}
			}
		}
	}
	return maxDelta
}

// smoothSweep runs one full red-black smoothing sweep (both colors)
// and returns the largest temperature change.
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
// The walk is column by column, so each coarse cell still receives its
// four fine contributions in fine-y-then-x order. The coarse unknown
// (the error correction) starts at zero.
func restrictResidual(f, c *mgLevel) {
	for i := range c.q {
		c.q[i] = 0
		c.t[i] = 0
	}
	nx, ny, nz := f.nx, f.ny, f.nz
	nxz := nx * nz
	amb := f.amb
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			j := y*nx + x
			b := j * nz
			cb := ((y/2)*c.nx + x/2) * nz
			for z := 0; z < nz; z++ {
				i := b + z
				// The diagonal, summed in assemble's order.
				d := 0.0
				if z > 0 {
					d += f.gv[i-1]
				} else {
					d += f.gTop[j]
				}
				if z < nz-1 {
					d += f.gv[i]
				} else {
					d += f.gBot[j]
				}
				if x > 0 {
					d += f.gxr[i-nz]
				}
				if x < nx-1 {
					d += f.gxr[i]
				}
				if y > 0 {
					d += f.gyu[i-nxz]
				}
				if y < ny-1 {
					d += f.gyu[i]
				}
				if cod := f.codZ[z]; cod != 0 {
					d += cod * f.fine[j]
				}
				r := f.q[i] - d*f.t[i]
				if z > 0 {
					r += f.gv[i-1] * f.t[i-1]
				} else {
					r += f.gTop[j] * amb
				}
				if z < nz-1 {
					r += f.gv[i] * f.t[i+1]
				} else {
					r += f.gBot[j] * amb
				}
				if x > 0 {
					r += f.gxr[i-nz] * f.t[i-nz]
				}
				if x < nx-1 {
					r += f.gxr[i] * f.t[i+nz]
				}
				if y > 0 {
					r += f.gyu[i-nxz] * f.t[i-nxz]
				}
				if y < ny-1 {
					r += f.gyu[i] * f.t[i+nxz]
				}
				c.q[cb+z] += r
			}
		}
	}
}

// prolongAdd interpolates the coarse correction bilinearly in the
// lateral plane (identity along z, which is never coarsened — the
// trilinear stencil degenerated along the exact axis) and adds it to
// the fine unknown, column by column. Cell-centered weights: 3/4
// toward the parent cell, 1/4 toward the lateral neighbor on each
// axis, collapsing to the parent at the domain edge.
func prolongAdd(c, f *mgLevel) {
	nx, ny, nz := f.nx, f.ny, f.nz
	for y := 0; y < ny; y++ {
		Y := y / 2
		Yn := Y + ((y&1)<<1 - 1) // y even: Y-1, y odd: Y+1
		if Yn < 0 || Yn > c.ny-1 {
			Yn = Y
		}
		for x := 0; x < nx; x++ {
			X := x / 2
			Xn := X + ((x&1)<<1 - 1)
			if Xn < 0 || Xn > c.nx-1 {
				Xn = X
			}
			p := c.t[(Y*c.nx+X)*nz:][:nz]
			px := c.t[(Y*c.nx+Xn)*nz:][:nz]
			py := c.t[(Yn*c.nx+X)*nz:][:nz]
			pxy := c.t[(Yn*c.nx+Xn)*nz:][:nz]
			t := f.t[(y*nx+x)*nz:][:nz]
			for z := range t {
				t[z] += 0.5625*p[z] + 0.1875*(px[z]+py[z]) + 0.0625*pxy[z]
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
func maxAbsDiff(a, b []float64) float64 {
	md := 0.0
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > md {
			md = d
		}
	}
	return md
}
