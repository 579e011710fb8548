// Package floorplan models block-level die floorplans: block
// placement, power assignment, rasterization into thermal power maps,
// Manhattan wire-length estimation, and the folding of a planar
// floorplan onto two stacked dies (the paper's Logic+Logic study,
// Figures 9 and 10).
package floorplan

import (
	"fmt"
	"math"

	"diestack/internal/thermal"
)

// Block is one functional unit placed on a die. Coordinates are in
// meters with the origin at the die's lower-left corner.
type Block struct {
	Name       string
	X, Y, W, H float64
	// Power is the block's dissipation in watts.
	Power float64
	// Die is the stacking layer: 0 is next to the heat sink. Planar
	// floorplans use die 0 only.
	Die int
}

// Area returns the block area in m².
func (b Block) Area() float64 { return b.W * b.H }

// Density returns the block's power density in W/m².
func (b Block) Density() float64 {
	a := b.Area()
	if a == 0 {
		return 0
	}
	return b.Power / a
}

// Center returns the block's center coordinates.
func (b Block) Center() (x, y float64) { return b.X + b.W/2, b.Y + b.H/2 }

// overlaps reports whether two blocks on the same die intersect with
// positive area.
func (b Block) overlaps(o Block) bool {
	if b.Die != o.Die {
		return false
	}
	const eps = 1e-12
	return b.X+b.W > o.X+eps && o.X+o.W > b.X+eps &&
		b.Y+b.H > o.Y+eps && o.Y+o.H > b.Y+eps
}

// Floorplan is a placed set of blocks over one or more dies of equal
// lateral dimensions.
type Floorplan struct {
	Name string
	// DieW, DieH are the lateral die dimensions in meters.
	DieW, DieH float64
	// Dies is the number of stacked dies (1 or 2 here).
	Dies   int
	Blocks []Block
}

// Validate checks bounds, die indices, and same-die overlap.
func (f *Floorplan) Validate() error {
	if f.DieW <= 0 || f.DieH <= 0 {
		return fmt.Errorf("floorplan %s: non-positive die size", f.Name)
	}
	if f.Dies < 1 {
		return fmt.Errorf("floorplan %s: Dies = %d", f.Name, f.Dies)
	}
	const eps = 1e-9
	for i, b := range f.Blocks {
		if b.W <= 0 || b.H <= 0 {
			return fmt.Errorf("floorplan %s: block %s has non-positive size", f.Name, b.Name)
		}
		if b.Power < 0 {
			return fmt.Errorf("floorplan %s: block %s has negative power", f.Name, b.Name)
		}
		if b.Die < 0 || b.Die >= f.Dies {
			return fmt.Errorf("floorplan %s: block %s on die %d of %d", f.Name, b.Name, b.Die, f.Dies)
		}
		if b.X < -eps || b.Y < -eps || b.X+b.W > f.DieW+eps || b.Y+b.H > f.DieH+eps {
			return fmt.Errorf("floorplan %s: block %s out of bounds", f.Name, b.Name)
		}
		for j := i + 1; j < len(f.Blocks); j++ {
			if b.overlaps(f.Blocks[j]) {
				return fmt.Errorf("floorplan %s: blocks %s and %s overlap", f.Name, b.Name, f.Blocks[j].Name)
			}
		}
	}
	return nil
}

// TotalPower sums all blocks in watts.
func (f *Floorplan) TotalPower() float64 {
	sum := 0.0
	for _, b := range f.Blocks {
		sum += b.Power
	}
	return sum
}

// DiePower sums block power on one die.
func (f *Floorplan) DiePower(die int) float64 {
	sum := 0.0
	for _, b := range f.Blocks {
		if b.Die == die {
			sum += b.Power
		}
	}
	return sum
}

// Block returns the named block, or false.
func (f *Floorplan) Block(name string) (Block, bool) {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b, true
		}
	}
	return Block{}, false
}

// ScalePower multiplies every block's power by factor, returning the
// receiver for chaining. Used for voltage/frequency scaling studies.
func (f *Floorplan) ScalePower(factor float64) *Floorplan {
	for i := range f.Blocks {
		f.Blocks[i].Power *= factor
	}
	return f
}

// Clone returns a deep copy.
func (f *Floorplan) Clone() *Floorplan {
	g := *f
	g.Blocks = append([]Block(nil), f.Blocks...)
	return &g
}

// PowerMap rasterizes one die's blocks onto an nx-by-ny thermal grid
// covering exactly the die. Block power is distributed over the grid
// cells the block covers, in proportion to the covered area of each
// cell.
func (f *Floorplan) PowerMap(die, nx, ny int) *thermal.PowerMap {
	return f.PowerMapPlaced(die, nx, ny, f.DieW, f.DieH, 0, 0)
}

// PowerMapPlaced rasterizes one die's blocks onto an nx-by-ny grid
// covering a pkgW x pkgH package column, with the die's origin at
// (offX, offY) within the column. Thermal stacks are solved on the
// package column (the cooling assembly is package-sized regardless of
// die size), so power maps must be placed into it.
func (f *Floorplan) PowerMapPlaced(die, nx, ny int, pkgW, pkgH, offX, offY float64) *thermal.PowerMap {
	pm := thermal.NewPowerMap(nx, ny)
	cw := pkgW / float64(nx)
	ch := pkgH / float64(ny)
	for _, b := range f.Blocks {
		if b.Die != die || b.Power == 0 {
			continue
		}
		bx := b.X + offX
		by := b.Y + offY
		density := b.Power / b.Area()
		x0 := int(bx / cw)
		x1 := int(math.Ceil((bx + b.W) / cw))
		y0 := int(by / ch)
		y1 := int(math.Ceil((by + b.H) / ch))
		for y := y0; y < y1 && y < ny; y++ {
			if y < 0 {
				continue
			}
			for x := x0; x < x1 && x < nx; x++ {
				if x < 0 {
					continue
				}
				// Intersection of the cell with the block.
				ix := math.Min(bx+b.W, float64(x+1)*cw) - math.Max(bx, float64(x)*cw)
				iy := math.Min(by+b.H, float64(y+1)*ch) - math.Max(by, float64(y)*ch)
				if ix > 0 && iy > 0 {
					pm.Add(x, y, density*ix*iy)
				}
			}
		}
	}
	return pm
}

// PowerMapCentered places the die centered in a pkgW x pkgH package
// column (the standard placement for the thermal stacks).
func (f *Floorplan) PowerMapCentered(die, nx, ny int, pkgW, pkgH float64) *thermal.PowerMap {
	return f.PowerMapPlaced(die, nx, ny, pkgW, pkgH, (pkgW-f.DieW)/2, (pkgH-f.DieH)/2)
}

// PeakDensity returns the highest per-cell power density across a
// die's rasterized map, in W/m².
func (f *Floorplan) PeakDensity(die, nx, ny int) float64 {
	return f.PowerMap(die, nx, ny).MaxDensity(f.DieW, f.DieH)
}

// StackedPeakDensity rasterizes every die and returns the peak of the
// summed (through-stack) density in W/m² — the quantity the paper's
// "power density increase" refers to for 3D stacks.
func (f *Floorplan) StackedPeakDensity(nx, ny int) float64 {
	sum := thermal.NewPowerMap(nx, ny)
	for d := 0; d < f.Dies; d++ {
		pm := f.PowerMap(d, nx, ny)
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				sum.Add(x, y, pm.At(x, y))
			}
		}
	}
	return sum.MaxDensity(f.DieW, f.DieH)
}

// Net is a weighted two-point connection between named blocks; Weight
// is the relative signal count.
type Net struct {
	A, B   string
	Weight float64
}

// WireLength estimates the total weighted Manhattan wire length of the
// nets over the floorplan, in meter·weight units. Connections between
// dies cost only the lateral distance — the vertical die-to-die via
// is electrically negligible (the paper: d2d via RC is about a third
// of a conventional via stack).
func (f *Floorplan) WireLength(nets []Net) (float64, error) {
	total := 0.0
	for _, n := range nets {
		a, okA := f.Block(n.A)
		b, okB := f.Block(n.B)
		if !okA || !okB {
			return 0, fmt.Errorf("floorplan %s: net %s-%s references missing block", f.Name, n.A, n.B)
		}
		ax, ay := a.Center()
		bx, by := b.Center()
		w := n.Weight
		if w == 0 {
			w = 1
		}
		total += w * (math.Abs(ax-bx) + math.Abs(ay-by))
	}
	return total, nil
}
