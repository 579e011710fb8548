package thermal

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// cellOperator is one multigrid level's conductances stored per cell,
// computed directly from the stack: the reference the column classes
// are checked against. Per-cell arrays are column-contiguous, cell
// (z, y, x) at (y*nx+x)*nz + z; gxr and gyu couple a cell to x+1 and
// y+1.
type cellOperator struct {
	nx, ny, nz       int
	gv, gxr, gyu     []float64
	gTop, gBot, fine []float64 // per lateral cell
}

// directFine discretizes s plane by plane, each cell's conductivity
// evaluated on its own, with none of the solver's row buffers or
// class lookups.
func directFine(s *Stack) *cellOperator {
	nx, ny := s.Nx, s.Ny
	dx, dy := s.Width/float64(nx), s.Height/float64(ny)
	area := dx * dy
	var dz []float64
	var zLayer []int
	for li, l := range s.Layers {
		n := max(int(math.Ceil(l.Thickness/maxCellDZ)), 1)
		for c := 0; c < n; c++ {
			dz = append(dz, l.Thickness/float64(n))
			zLayer = append(zLayer, li)
		}
	}
	nz := len(dz)
	k := func(z, y, x int) float64 {
		l := &s.Layers[zLayer[z]]
		if !l.bounded() {
			return l.Material.Conductivity
		}
		x0, y0 := float64(x)*dx, float64(y)*dy
		ox := math.Min(l.Extent.X+l.Extent.W, x0+dx) - math.Max(l.Extent.X, x0)
		oy := math.Min(l.Extent.Y+l.Extent.H, y0+dy) - math.Max(l.Extent.Y, y0)
		frac := 0.0
		if ox > 0 && oy > 0 {
			frac = (ox * oy) / (dx * dy)
		}
		return frac*l.Material.Conductivity + (1-frac)*EpoxyFill.Conductivity
	}
	op := &cellOperator{
		nx: nx, ny: ny, nz: nz,
		gv: make([]float64, nz*ny*nx), gxr: make([]float64, nz*ny*nx), gyu: make([]float64, nz*ny*nx),
		gTop: make([]float64, ny*nx), gBot: make([]float64, ny*nx), fine: make([]float64, ny*nx),
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i, j := (y*nx+x)*nz+z, y*nx+x
				op.fine[j] = 1
				if z < nz-1 {
					op.gv[i] = area / (dz[z]/(2*k(z, y, x)) + dz[z+1]/(2*k(z+1, y, x)))
				}
				if x < nx-1 {
					op.gxr[i] = dz[z] * dy / (dx/(2*k(z, y, x)) + dx/(2*k(z, y, x+1)))
				}
				if y < ny-1 {
					op.gyu[i] = dz[z] * dx / (dy/(2*k(z, y, x)) + dy/(2*k(z, y+1, x)))
				}
				if z == 0 && s.TopH > 0 {
					op.gTop[j] = area / (dz[0]/(2*k(0, y, x)) + 1/s.TopH)
				}
				if z == nz-1 && s.BottomH > 0 {
					op.gBot[j] = area / (dz[nz-1]/(2*k(nz-1, y, x)) + 1/s.BottomH)
				}
			}
		}
	}
	return op
}

// directCoarse aggregates f's 2x2 lateral cell groups cell by cell:
// sums over the aggregate in fine-y-then-x order, and the lateral
// conductances crossing a coarse face summed and halved.
func directCoarse(f *cellOperator) *cellOperator {
	nxc, nyc, nz := coarseDim(f.nx), coarseDim(f.ny), f.nz
	c := &cellOperator{
		nx: nxc, ny: nyc, nz: nz,
		gv: make([]float64, nz*nyc*nxc), gxr: make([]float64, nz*nyc*nxc), gyu: make([]float64, nz*nyc*nxc),
		gTop: make([]float64, nyc*nxc), gBot: make([]float64, nyc*nxc), fine: make([]float64, nyc*nxc),
	}
	fi := func(z, y, x int) int { return (y*f.nx+x)*nz + z }
	for Y := 0; Y < nyc; Y++ {
		for X := 0; X < nxc; X++ {
			J := Y*nxc + X
			for y := fineLo(Y); y <= fineHi(Y, f.ny); y++ {
				for x := fineLo(X); x <= fineHi(X, f.nx); x++ {
					c.gTop[J] += f.gTop[y*f.nx+x]
					c.gBot[J] += f.gBot[y*f.nx+x]
					c.fine[J] += f.fine[y*f.nx+x]
				}
			}
			for z := 0; z < nz; z++ {
				I := J*nz + z
				for y := fineLo(Y); y <= fineHi(Y, f.ny); y++ {
					for x := fineLo(X); x <= fineHi(X, f.nx); x++ {
						c.gv[I] += f.gv[fi(z, y, x)]
					}
				}
				if X < nxc-1 {
					var g float64
					for y := fineLo(Y); y <= fineHi(Y, f.ny); y++ {
						g += f.gxr[fi(z, y, 2*X+1)]
					}
					c.gxr[I] = g / 2
				}
				if Y < nyc-1 {
					var g float64
					for x := fineLo(X); x <= fineHi(X, f.nx); x++ {
						g += f.gyu[fi(z, 2*Y+1, x)]
					}
					c.gyu[I] = g / 2
				}
			}
		}
	}
	return c
}

// checkClassesMatchCells compares every level of w's hierarchy, cell
// by cell and bit for bit, with the directly computed operator.
func checkClassesMatchCells(t *testing.T, name string, w *Workspace) {
	t.Helper()
	ref := directFine(w.sv.s)
	for l, lv := range w.mg.levels {
		if l > 0 {
			ref = directCoarse(ref)
		}
		if lv.nx != ref.nx || lv.ny != ref.ny || lv.nz != ref.nz {
			t.Fatalf("%s level %d: %dx%dx%d, direct %dx%dx%d", name, l, lv.nx, lv.ny, lv.nz, ref.nx, ref.ny, ref.nz)
		}
		nx, ny, nz := lv.nx, lv.ny, lv.nz
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				c, j := lv.col(y, x), y*nx+x
				var nb uint8
				var want [5][]float64 // gv, gw, ge, gs, gn
				for k := range want {
					want[k] = make([]float64, nz)
				}
				copy(want[0], ref.gv[j*nz:])
				if x > 0 {
					nb |= nbW
					copy(want[1], ref.gxr[(j-1)*nz:])
				}
				if x < nx-1 {
					nb |= nbE
					copy(want[2], ref.gxr[j*nz:])
				}
				if y > 0 {
					nb |= nbS
					copy(want[3], ref.gyu[(j-nx)*nz:])
				}
				if y < ny-1 {
					nb |= nbN
					copy(want[4], ref.gyu[j*nz:])
				}
				if c.nb != nb {
					t.Fatalf("%s level %d (%d,%d): neighbor mask %04b, want %04b", name, l, x, y, c.nb, nb)
				}
				got := [5][]float64{c.gv, c.gw, c.ge, c.gs, c.gn}
				for k, vs := range want {
					for z, v := range vs {
						if math.Float64bits(got[k][z]) != math.Float64bits(v) {
							t.Fatalf("%s level %d (%d,%d,z=%d): conductance %d is %v, direct %v", name, l, x, y, z, k, got[k][z], v)
						}
					}
				}
				for _, p := range [][2]float64{{c.gTop, ref.gTop[j]}, {c.gBot, ref.gBot[j]}, {c.fine, ref.fine[j]}} {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
						t.Fatalf("%s level %d (%d,%d): boundary/count %v, direct %v", name, l, x, y, p[0], p[1])
					}
				}
			}
		}
	}
}

// TestColumnClassesMatchCells holds every multigrid level's column
// classes to the per-cell operator computed directly: every cell's
// conductances, read through its class, equal the direct ones bit for
// bit, on randomized stacks (odd and even sizes, bounded and unbounded
// layers, varied bottom films) and on the 3D logic stack.
func TestColumnClassesMatchCells(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 0; n < 50; n++ {
		s := randomStack(rng)
		if n%5 == 0 {
			s.BottomH = 10 + 100*rng.Float64()
		}
		w, err := NewWorkspace(s)
		if err != nil {
			t.Fatal(err)
		}
		checkClassesMatchCells(t, "random", w)
	}
	w, err := NewWorkspace(logicStack3D(64))
	if err != nil {
		t.Fatal(err)
	}
	checkClassesMatchCells(t, "logic3d", w)
}

// TestWorkspaceFootprint bounds what building a grid-64 workspace
// allocates, and how many column classes each level of the 3D logic
// stack needs: storing one copy of each distinct column, and no
// per-cell conductance, is what keeps the workspace this small.
func TestWorkspaceFootprint(t *testing.T) {
	s := logicStack3D(64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := NewWorkspace(s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3.75e6 // bytes; the per-cell conductances made it 6.25e6
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("NewWorkspace(logicStack3D(64)) allocated %.2f MB, budget %.2f MB", float64(got)/1e6, budget/1e6)
	}
	for l, lv := range w.mg.levels {
		if n := len(lv.cls); n > 64 {
			t.Errorf("level %d (%dx%d) has %d column classes, want at most 64", l, lv.nx, lv.ny, n)
		}
	}
}
