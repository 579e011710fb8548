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
// Footprint: the operator is stored by column class (colClass): each
// level keeps one copy of each distinct z-column's conductances — a
// catalog stack has a few dozen among thousands of lateral cells — and
// one int32 class index per lateral cell; no per-cell conductance
// array exists. Per cell, the fine level aliases the solver's two
// arrays (temperatures, right-hand side) and adds one, the pre-cycle
// snapshot tPrev; each coarse level holds two (correction, right-hand
// side) at a quarter of the cells of the level above. Neither the
// operator diagonal nor the residual is stored per cell: each class
// caches its diagonal, summed once per solve attempt with the
// attempt's capacity term, and its Thomas factorization, and the
// residual is computed inside the restriction. Every per-cell array on
// every level is stored column-contiguous — cell (z, y, x) at
// (y*nx+x)*nz + z — so a z-line solve reads each of its arrays at unit
// stride; the only other per-level storage is the smoother's scratch,
// two arrays of mgLanes·nz values (one set per band on levels a crew
// splits, see crew.go).
//
// The hierarchy is allocated once per Workspace and reused by every
// later solve, retry, transient step, and DTM sample; a V-cycle
// performs zero allocations (TestMultigridVCycleAllocs pins this for
// the cycle and its convergence delta).
package thermal

import (
	"encoding/binary"
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
// fine solver's arrays (temperatures, right-hand side, column classes),
// so smoothing the fine level *is* iterating the real system; coarser
// levels own their aggregated copies and solve the error equation
// A·e = r, which has zero ambient (the boundary data lives in the
// restricted residual). Per-cell arrays are column-contiguous, like
// the solver's: cell (z, y, x) lives at (y*nx+x)*nz + z.
type mgLevel struct {
	nx, ny, nz int
	colTable
	// codZ is the capacity term C/dt of one fine cell in each z-plane
	// (all zero for steady solves), shared by every level.
	codZ []float64
	t    []float64 // unknown: temperature (level 0) or error correction
	q    []float64 // right-hand side: sources (level 0) or restricted residual
	amb  float64   // ambient boundary temperature (0 on coarse levels)
	sc   *lineScratch
	// crew, while a solve attempt has one attached and the level is
	// large enough, runs the level's kernels over its bands: each
	// worker always takes the same contiguous share of them, handed
	// to the helpers over channels (crew.go). nil runs them serial.
	crew  *crew
	bands []band
}

// Neighbor-presence bits of a column class.
const (
	nbW = 1 << iota // x-1
	nbE             // x+1
	nbS             // y-1
	nbN             // y+1
)

// colClass is one distinct z-column of a level's operator. A die stack
// is built from a few rectangles of a few materials, so a level's
// thousands of lateral cells share a few dozen distinct columns; each
// is stored once, and so are the per-attempt quantities derived from
// it.
type colClass struct {
	// gv[z] couples plane z to z+1 (0 in the last plane); gw, ge, gs
	// and gn couple it to the column's x-1, x+1, y-1 and y+1 neighbor
	// (0 where nb says that neighbor is absent).
	gv, gw, ge, gs, gn []float64
	gTop, gBot         float64 // boundary conductances
	// fine counts the fine-level lateral cells aggregated into the
	// column (1 on level 0), which scales the capacity term.
	fine float64
	nb   uint8
	// Set by beginSolve for the attempt's capacity term: diag is the
	// operator diagonal, summed in one fixed order (vertical, x, y,
	// capacity); piv and cp are the pivots and eliminated
	// superdiagonal of the column's tridiagonal Thomas factorization.
	diag, piv, cp []float64
}

// newColClass returns a class whose vectors, all nz long, share one
// allocation.
func newColClass(nz int) colClass {
	v := make([]float64, 8*nz)
	return colClass{
		gv: v[:nz:nz], gw: v[nz : 2*nz : 2*nz], ge: v[2*nz : 3*nz : 3*nz],
		gs: v[3*nz : 4*nz : 4*nz], gn: v[4*nz : 5*nz : 5*nz],
		diag: v[5*nz : 6*nz : 6*nz], piv: v[6*nz : 7*nz : 7*nz], cp: v[7*nz:],
	}
}

// factor sets the class's diagonal for the capacity terms codZ and
// factorizes its tridiagonal system. Row z's superdiagonal is -gv[z]
// (0 in the last row) and its subdiagonal -gv[z-1].
func (c *colClass) factor(codZ []float64) {
	nz := len(c.gv)
	for z := range c.diag {
		d := 0.0
		if z > 0 {
			d += c.gv[z-1]
		} else {
			d += c.gTop
		}
		if z < nz-1 {
			d += c.gv[z]
		} else {
			d += c.gBot
		}
		if c.nb&nbW != 0 {
			d += c.gw[z]
		}
		if c.nb&nbE != 0 {
			d += c.ge[z]
		}
		if c.nb&nbS != 0 {
			d += c.gs[z]
		}
		if c.nb&nbN != 0 {
			d += c.gn[z]
		}
		if cod := codZ[z]; cod != 0 {
			d += cod * c.fine
		}
		c.diag[z] = d
	}
	sup := func(z int) float64 {
		if z < nz-1 {
			return -c.gv[z]
		}
		return 0
	}
	c.piv[0] = c.diag[0]
	c.cp[0] = sup(0) / c.diag[0]
	for z := 1; z < nz; z++ {
		m := c.diag[z] - -c.gv[z-1]*c.cp[z-1] // diag - sub·cp
		c.piv[z] = m
		c.cp[z] = sup(z) / m
	}
}

// colTable stores a level's operator by column class: cls holds each
// distinct column once, and of names the class of each lateral cell
// (indexed y*nx + x).
type colTable struct {
	cls []colClass
	of  []int32
}

// col returns the class of lateral cell (y, x).
func (lv *mgLevel) col(y, x int) *colClass { return &lv.cls[lv.of[y*lv.nx+x]] }

// classBuilder files a level's columns into classes in scan order. The
// caller fills the scratch column's gv, ge, gn, gTop, gBot and fine;
// add derives the rest from the position and the columns already
// filed. Two columns share a class only when every value of the class
// matches bit for bit.
type classBuilder struct {
	nx, ny, nz int
	colTable
	col colClass
	ids map[string]int32
	key []byte
}

func newClassBuilder(nx, ny, nz int) *classBuilder {
	return &classBuilder{
		nx: nx, ny: ny, nz: nz,
		colTable: colTable{of: make([]int32, nx*ny)},
		col:      newColClass(nz),
		ids:      make(map[string]int32),
		key:      make([]byte, 0, 5*nz*8+3*8+1),
	}
}

// add completes the scratch column at (y, x) and files it: its x-1
// and y-1 couplings are the x+1 and y+1 couplings of the columns
// already filed there, so both sides of a face hold the same bits.
func (b *classBuilder) add(y, x int) {
	c := &b.col
	j := y*b.nx + x
	c.nb = 0
	clear(c.gw)
	clear(c.gs)
	if x > 0 {
		c.nb |= nbW
		copy(c.gw, b.cls[b.of[j-1]].ge)
	}
	if x < b.nx-1 {
		c.nb |= nbE
	} else {
		clear(c.ge)
	}
	if y > 0 {
		c.nb |= nbS
		copy(c.gs, b.cls[b.of[j-b.nx]].gn)
	}
	if y < b.ny-1 {
		c.nb |= nbN
	} else {
		clear(c.gn)
	}
	c.gv[b.nz-1] = 0
	key := b.key[:0]
	for _, vs := range [][]float64{c.gv, c.gw, c.ge, c.gs, c.gn, {c.gTop, c.gBot, c.fine}} {
		for _, v := range vs {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
	}
	key = append(key, c.nb)
	b.key = key
	if id, ok := b.ids[string(key)]; ok {
		b.of[j] = id
		return
	}
	id := int32(len(b.cls))
	n := newColClass(b.nz)
	copy(n.gv, c.gv)
	copy(n.gw, c.gw)
	copy(n.ge, c.ge)
	copy(n.gs, c.gs)
	copy(n.gn, c.gn)
	n.gTop, n.gBot, n.fine, n.nb = c.gTop, c.gBot, c.fine, c.nb
	b.cls = append(b.cls, n)
	b.ids[string(key)] = id
	b.of[j] = id
}

// lineScratch holds the tridiagonal systems of up to mgLanes z-columns
// solved together, lane k in [k*nz, (k+1)*nz) of rhs and dp: the class
// of each lane's column, whose cached factorization the solve
// substitutes against, and the column's temperatures, which it
// relaxes.
type lineScratch struct {
	rhs, dp []float64
	lane    [mgLanes]*colClass
	t       [mgLanes][]float64
}

func newLineScratch(nz int) *lineScratch {
	n := mgLanes * nz
	return &lineScratch{rhs: make([]float64, n), dp: make([]float64, n)}
}

// solve solves the first lanes systems of length n by forward and back
// substitution against each lane's factorization, relaxes each lane's
// column toward its solution by omega, and returns the largest
// temperature change. At omega 1 (the default) a column lands exactly
// on its line-Gauss-Seidel value. Row by row it steps every lane once,
// so the lanes' independent divide chains overlap; each lane performs
// exactly the operations of a single-column Thomas solve.
func (sc *lineScratch) solve(n, lanes int, omega float64) float64 {
	rhs, dp := sc.rhs, sc.dp
	for k, c := range sc.lane[:lanes] {
		dp[k*n] = rhs[k*n] / c.piv[0]
	}
	for i := 1; i < n; i++ {
		for k, c := range sc.lane[:lanes] {
			o := k*n + i
			dp[o] = (rhs[o] - -c.gv[i-1]*dp[o-1]) / c.piv[i]
		}
	}
	md := 0.0
	relax := func(t []float64, i int, v float64) {
		old := t[i]
		nv := old + omega*(v-old)
		if d := math.Abs(nv - old); d > md {
			md = d
		}
		t[i] = nv
	}
	for k, t := range sc.t[:lanes] {
		relax(t, n-1, dp[k*n+n-1])
	}
	for i := n - 2; i >= 0; i-- {
		for k, c := range sc.lane[:lanes] {
			o := k*n + i
			dp[o] -= c.cp[i] * dp[o+1]
			relax(sc.t[k], i, dp[o])
		}
	}
	return md
}

// loadLine loads lane k of sc with the z-column at (y, x), lateral
// neighbors fixed: the column's class, and its right-hand side. The
// lateral edge tests are made once per column: each present neighbor
// is one pass down the column. Every row sums its right-hand side in
// one fixed order — vertical, x, y.
func (lv *mgLevel) loadLine(sc *lineScratch, k, y, x int) {
	nx, nz := lv.nx, lv.nz
	b := (y*nx + x) * nz
	c := lv.col(y, x)
	sc.lane[k] = c
	sc.t[k] = lv.t[b : b+nz]
	rhs := sc.rhs[k*nz : (k+1)*nz]
	copy(rhs, lv.q[b:b+nz])
	rhs[0] += c.gTop * lv.amb
	rhs[nz-1] += c.gBot * lv.amb
	nxz := nx * nz
	if x > 0 {
		addNeighbor(rhs, c.gw, lv.t[b-nz:b])
	}
	if x < nx-1 {
		addNeighbor(rhs, c.ge, lv.t[b+nz:b+2*nz])
	}
	if y > 0 {
		addNeighbor(rhs, c.gs, lv.t[b-nxz:b-nxz+nz])
	}
	if y < lv.ny-1 {
		addNeighbor(rhs, c.gn, lv.t[b+nxz:b+nxz+nz])
	}
}

// addNeighbor adds one lateral neighbor column's coupling g·t to a
// z-line right-hand side or defect.
func addNeighbor(rhs, g, t []float64) {
	g, t = g[:len(rhs)], t[:len(rhs)]
	for z := range rhs {
		rhs[z] += g[z] * t[z]
	}
}

// smoothColor relaxes every z-column of one checkerboard color
// ((x+y) mod 2 == color): each column is solved exactly, one
// tridiagonal Thomas solve, with its lateral neighbors fixed. Same-color
// columns share no lateral face, so they are mutually independent, and
// each row relaxes them mgLanes at a time (fewer at the row's end) with
// their Thomas solves interleaved; the grouping changes no result.
// Returns the sweep's largest temperature change.
func (lv *mgLevel) smoothColor(color int, omega float64) float64 {
	if lv.crew != nil {
		return lv.crew.smooth(lv, color, omega)
	}
	return lv.smoothRows(lv.sc, color, omega, 0, lv.ny)
}

// smoothRows relaxes one color's z-columns in rows [y0, y1), solving
// their lines in sc, and returns their largest temperature change.
func (lv *mgLevel) smoothRows(sc *lineScratch, color int, omega float64, y0, y1 int) float64 {
	nx, nz := lv.nx, lv.nz
	maxDelta := 0.0
	for y := y0; y < y1; y++ {
		for x := (y & 1) ^ color; x < nx; x += 2 * mgLanes {
			lanes := min(mgLanes, (nx-x+1)/2)
			for k := 0; k < lanes; k++ {
				lv.loadLine(sc, k, y, x+2*k)
			}
			if d := sc.solve(nz, lanes, omega); d > maxDelta {
				maxDelta = d
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
	tb := newClassBuilder(nxc, nyc, nz)
	c := &tb.col
	for Y := 0; Y < nyc; Y++ {
		yLo, yHi := fineLo(Y), fineHi(Y, f.ny)
		for X := 0; X < nxc; X++ {
			xLo, xHi := fineLo(X), fineHi(X, f.nx)
			// The aggregate's fine columns, in fine-y-then-x order.
			var agg [4]*colClass
			n := 0
			for y := yLo; y <= yHi; y++ {
				for x := xLo; x <= xHi; x++ {
					agg[n] = f.col(y, x)
					n++
				}
			}
			// Boundary conductances and cell counts: sum over the
			// aggregate's footprint.
			c.gTop, c.gBot, c.fine = 0, 0, 0
			for _, fc := range agg[:n] {
				c.gTop += fc.gTop
				c.gBot += fc.gBot
				c.fine += fc.fine
			}
			for z := 0; z < nz; z++ {
				// Vertical: every fine column in the aggregate crosses the
				// same z interface.
				var gv float64
				for _, fc := range agg[:n] {
					gv += fc.gv[z]
				}
				c.gv[z] = gv
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
						g += f.col(y, 2*X+1).ge[z]
					}
					c.ge[z] = g / 2
				}
				if Y < nyc-1 {
					var g float64
					for x := xLo; x <= xHi; x++ {
						g += f.col(2*Y+1, x).gn[z]
					}
					c.gn[z] = g / 2
				}
			}
			tb.add(Y, X)
		}
	}
	return &mgLevel{
		nx: nxc, ny: nyc, nz: nz,
		colTable: tb.colTable,
		codZ:     f.codZ,
		t:        make([]float64, cells),
		q:        make([]float64, cells),
		amb:      0,
		sc:       newLineScratch(nz),
	}
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
	if f.crew != nil {
		f.crew.transfer(f, opRestrict)
		return
	}
	restrictRows(f, c, f.sc.rhs, 0, c.ny)
}

// restrictRows restricts into coarse rows [c0, c1): it zeroes their
// cells, then walks the fine rows they cover, forming each column's
// defect in r (nz values) before adding it to its coarse column. Each
// defect takes the diagonal its column's class cached and adds the
// couplings in the diagonal's order: vertical, then one pass down the
// column per present lateral neighbor.
func restrictRows(f, c *mgLevel, r []float64, c0, c1 int) {
	nx, ny, nz := f.nx, f.ny, f.nz
	cq, ct := c.q[c0*c.nx*nz:c1*c.nx*nz], c.t[c0*c.nx*nz:c1*c.nx*nz]
	for i := range cq {
		cq[i] = 0
		ct[i] = 0
	}
	r = r[:nz]
	nxz := nx * nz
	amb := f.amb
	for y := 2 * c0; y < min(2*c1, ny); y++ {
		for x := 0; x < nx; x++ {
			cl := f.col(y, x)
			b := (y*nx + x) * nz
			q, t := f.q[b:b+nz], f.t[b:b+nz]
			diag, gv := cl.diag[:nz], cl.gv[:nz]
			for z := range r {
				v := q[z] - diag[z]*t[z]
				if z > 0 {
					v += gv[z-1] * t[z-1]
				} else {
					v += cl.gTop * amb
				}
				if z < nz-1 {
					v += gv[z] * t[z+1]
				} else {
					v += cl.gBot * amb
				}
				r[z] = v
			}
			if x > 0 {
				addNeighbor(r, cl.gw, f.t[b-nz:b])
			}
			if x < nx-1 {
				addNeighbor(r, cl.ge, f.t[b+nz:b+2*nz])
			}
			if y > 0 {
				addNeighbor(r, cl.gs, f.t[b-nxz:b-nxz+nz])
			}
			if y < ny-1 {
				addNeighbor(r, cl.gn, f.t[b+nxz:b+nxz+nz])
			}
			cb := ((y/2)*c.nx + x/2) * nz
			for z, v := range c.q[cb : cb+nz] {
				c.q[cb+z] = v + r[z]
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
	if f.crew != nil {
		f.crew.transfer(f, opProlong)
		return
	}
	prolongRows(c, f, 0, f.ny)
}

// prolongRows prolongs the correction into fine rows [y0, y1).
func prolongRows(c, f *mgLevel, y0, y1 int) {
	nx, nz := f.nx, f.nz
	for y := y0; y < y1; y++ {
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
		colTable: sv.cols,
		codZ:     codZ,
		t:        sv.t,
		q:        sv.q,
		amb:      sv.s.AmbientC,
		sc:       newLineScratch(sv.nz),
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
// diagonal carries, factorize every column class for it, and reset
// the attempt's tallies.
func (h *mgHier) beginSolve(dt float64) {
	for z, c := range h.capZ {
		h.codZ[z] = 0
		if dt > 0 {
			h.codZ[z] = c / dt
		}
	}
	for _, lv := range h.levels {
		for i := range lv.cls {
			lv.cls[i].factor(h.codZ)
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
