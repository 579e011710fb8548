package floorplan

import (
	"fmt"
	"math"
	"sort"

	"diestack/internal/thermal"
)

const (
	// foldGrid is the density raster resolution.
	foldGrid = 64
	// foldAreaSlack is extra footprint area beyond half the planar die:
	// 10% whitespace for routability.
	foldAreaSlack = 0.10
)

// FoldOptions tunes AutoFold.
type FoldOptions struct {
	// DensityTarget caps the folded design's through-stack peak power
	// density, as a multiple of the planar floorplan's peak (the paper
	// lands at ~1.3x). Default 1.35.
	DensityTarget float64
	// PowerFactor scales every block's power in the folded design (the
	// paper's 15% saving -> 0.85). Default 1.
	PowerFactor float64
	// CriticalNets lists connections whose endpoints should end up on
	// opposite dies, vertically overlapped — the wire the fold exists
	// to remove. Defaults to nothing.
	CriticalNets []Net
	// MaxRepairIters bounds the place-observe-repair loop (default 64).
	MaxRepairIters int
}

func (o FoldOptions) withDefaults() FoldOptions {
	if o.DensityTarget == 0 {
		o.DensityTarget = 1.35
	}
	if o.PowerFactor == 0 {
		o.PowerFactor = 1
	}
	if o.MaxRepairIters == 0 {
		o.MaxRepairIters = 64
	}
	return o
}

// AutoFold converts a planar floorplan into a two-die fold using the
// paper's methodology: halve the footprint, split the blocks across
// the dies with critical-net endpoints facing each other, then run the
// "simple iterative process of placing blocks, observing the new power
// densities and repairing outliers" until the through-stack peak
// density meets the target.
//
// The hand-crafted Pentium4ThreeD floorplan is the reference fold;
// AutoFold produces comparable results for arbitrary planar inputs.
func AutoFold(planar *Floorplan, opt FoldOptions) (*Floorplan, error) {
	if err := planar.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: AutoFold input: %w", err)
	}
	if planar.Dies != 1 {
		return nil, fmt.Errorf("floorplan: AutoFold needs a planar input, got %d dies", planar.Dies)
	}
	opt = opt.withDefaults()

	// Footprint: half the area plus slack, preserving the aspect ratio.
	shrink := math.Sqrt((1 + foldAreaSlack) / 2)
	dieW := planar.DieW * shrink
	dieH := planar.DieH * shrink
	capArea := dieW * dieH
	maxPartArea := 0.4 * capArea

	// Identify the critical pairs. The hotter endpoint goes to die 0
	// (next to the heat sink), its mate directly above it on die 1.
	mate := map[string]string{} // die-0 block -> die-1 partner
	forced := map[string]int{}  // block -> forced die
	for _, n := range opt.CriticalNets {
		a, okA := planar.Block(n.A)
		bb, okB := planar.Block(n.B)
		if !okA || !okB {
			return nil, fmt.Errorf("floorplan: AutoFold critical net %s-%s names a missing block", n.A, n.B)
		}
		if a.Area() > maxPartArea || bb.Area() > maxPartArea {
			// A split block cannot anchor a vertical pairing; it will be
			// placed like any other block.
			continue
		}
		if _, done := forced[n.A]; done {
			continue
		}
		if _, done := forced[n.B]; done {
			continue
		}
		hot, cold := a, bb
		if bb.Density() > a.Density() {
			hot, cold = bb, a
		}
		forced[hot.Name] = 0
		forced[cold.Name] = 1
		mate[hot.Name] = cold.Name
	}

	// Split blocks too large for the halved footprint and reshape the
	// rest, preserving area (the paper's fold likewise re-aspects and
	// splits blocks: "reducing intra-block interconnect through block
	// splitting"). Split parts inherit the parent's name with a /k
	// suffix and share its power evenly.
	var reshaped []Block
	for _, b := range planar.Blocks {
		parts := 1
		if b.Area() > maxPartArea {
			parts = int(math.Ceil(b.Area() / maxPartArea))
		}
		for k := 0; k < parts; k++ {
			nb := b
			if parts > 1 {
				nb.Name = fmt.Sprintf("%s/%d", b.Name, k+1)
				nb.W = b.W / float64(parts)
				nb.Power = b.Power / float64(parts)
			}
			reshaped = append(reshaped, nb)
		}
	}
	maxW, maxH := dieW*0.92, dieH*0.92
	for i := range reshaped {
		b := &reshaped[i]
		if b.W <= maxW && b.H <= maxH {
			continue
		}
		area := b.Area()
		if b.H > maxH {
			b.H = maxH
			b.W = area / b.H
		}
		if b.W > maxW {
			b.W = maxW
			b.H = area / b.W
		}
		if b.H > maxH {
			return nil, fmt.Errorf("floorplan: block %s cannot be reshaped into the folded die", b.Name)
		}
	}

	// Partition by first-fit decreasing area (forced critical blocks
	// keep their die): big blocks place first, each onto the emptier
	// die, which balances the two dies and never strands a large block.
	blocks := reshaped
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].Area() != blocks[j].Area() {
			return blocks[i].Area() > blocks[j].Area()
		}
		return blocks[i].Name < blocks[j].Name
	})
	dieArea := [2]float64{}
	// Leave packing headroom: a first-fit packer reliably reaches ~90%
	// utilization, not 100%.
	packCap := 0.88 * capArea
	assign := map[string]int{}
	for _, b := range blocks {
		if d, ok := forced[b.Name]; ok {
			assign[b.Name] = d
			dieArea[d] += b.Area()
		}
	}
	for _, b := range blocks {
		if _, ok := forced[b.Name]; ok {
			continue
		}
		d := 0
		if dieArea[1] < dieArea[0] {
			d = 1
		}
		if dieArea[d]+b.Area() > packCap {
			d = 1 - d
		}
		assign[b.Name] = d
		dieArea[d] += b.Area()
	}
	if dieArea[0] > packCap || dieArea[1] > packCap {
		return nil, fmt.Errorf("floorplan: AutoFold blocks do not fit two %.1fx%.1f mm dies",
			dieW*1e3, dieH*1e3)
	}

	// Place die 0 by shelf packing (hottest blocks get spread first so
	// the packer naturally separates them).
	folded := &Floorplan{
		Name: planar.Name + "-autofold",
		DieW: dieW, DieH: dieH, Dies: 2,
	}
	var die0, die1 []Block
	for _, b := range blocks {
		nb := b
		nb.Power *= opt.PowerFactor
		nb.Die = assign[b.Name]
		if nb.Die == 0 {
			die0 = append(die0, nb)
		} else {
			die1 = append(die1, nb)
		}
	}
	placed0, err := packAround(die0, nil, dieW, dieH)
	if err != nil {
		return nil, err
	}
	folded.Blocks = placed0

	// Die 1: mates first, directly over their partners; the rest packed
	// into whatever space remains.
	pos0 := map[string]Block{}
	for _, b := range placed0 {
		pos0[b.Name] = b
	}
	var mates, rest []Block
	mateOf := map[string]string{} // die-1 partner -> die-0 anchor
	for hot, cold := range mate {
		mateOf[cold] = hot
	}
	for _, b := range die1 {
		if _, ok := mateOf[b.Name]; ok {
			mates = append(mates, b)
		} else {
			rest = append(rest, b)
		}
	}
	var placed1 []Block
	for _, b := range mates {
		anchor := pos0[mateOf[b.Name]]
		ax, ay := anchor.Center()
		nb := b
		nb.X = clamp(ax-b.W/2, 0, dieW-b.W)
		nb.Y = clamp(ay-b.H/2, 0, dieH-b.H)
		nb = nudgeApart(nb, placed1, dieW, dieH)
		placed1 = append(placed1, nb)
	}
	packedRest, err := packAround(rest, placed1, dieW, dieH)
	if err != nil {
		return nil, err
	}
	placed1 = append(placed1, packedRest...)
	folded.Blocks = append(folded.Blocks, placed1...)

	if err := folded.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: AutoFold produced an invalid plan: %w", err)
	}

	// Observe-and-repair loop: while the through-stack peak density
	// exceeds the target, move the worst non-anchored contributor to
	// the coolest spot of its die.
	planarPeak := planar.PeakDensity(0, foldGrid, foldGrid)
	target := opt.DensityTarget * planarPeak
	for iter := 0; iter < opt.MaxRepairIters; iter++ {
		peak, cellX, cellY := stackedPeakCell(folded, foldGrid)
		if peak <= target {
			break
		}
		victim := hottestContributor(folded, cellX, cellY, foldGrid, mate, mateOf)
		if victim < 0 {
			break // everything at the hot spot is pinned
		}
		moved, ok := moveToCoolest(folded, victim, foldGrid)
		if !ok {
			break
		}
		folded.Blocks[victim] = moved
	}
	if err := folded.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: AutoFold repair broke the plan: %w", err)
	}
	return folded, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// shelfPack places blocks left-to-right in height-sorted shelves.
func shelfPack(blocks []Block, dieW, dieH float64) ([]Block, error) {
	sorted := append([]Block(nil), blocks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].H != sorted[j].H {
			return sorted[i].H > sorted[j].H
		}
		return sorted[i].Name < sorted[j].Name
	})
	var out []Block
	x, y, shelfH := 0.0, 0.0, 0.0
	for _, b := range sorted {
		if x+b.W > dieW+1e-12 {
			y += shelfH
			x, shelfH = 0, 0
		}
		if y+b.H > dieH+1e-12 {
			return nil, fmt.Errorf("floorplan: shelf packing overflowed the %gx%g mm die at %s",
				dieW*1e3, dieH*1e3, b.Name)
		}
		nb := b
		nb.X, nb.Y = x, y
		out = append(out, nb)
		x += b.W
		if b.H > shelfH {
			shelfH = b.H
		}
	}
	return out, nil
}

// nudgeApart shifts b on a coarse grid until it no longer overlaps any
// already-placed block (best effort: returns the least-overlapping
// position found).
func nudgeApart(b Block, placed []Block, dieW, dieH float64) Block {
	if !overlapsAny(b, placed) {
		return b
	}
	const steps = 24
	best := b
	bestOv := overlapArea(b, placed)
	for iy := 0; iy <= steps; iy++ {
		for ix := 0; ix <= steps; ix++ {
			cand := b
			cand.X = float64(ix) / steps * (dieW - b.W)
			cand.Y = float64(iy) / steps * (dieH - b.H)
			ov := overlapArea(cand, placed)
			if ov < bestOv {
				best, bestOv = cand, ov
				if ov == 0 {
					return best
				}
			}
		}
	}
	return best
}

// packAround places blocks (largest first) at the first grid position
// that avoids every already-placed block.
func packAround(blocks, placed []Block, dieW, dieH float64) ([]Block, error) {
	sorted := append([]Block(nil), blocks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Area() != sorted[j].Area() {
			return sorted[i].Area() > sorted[j].Area()
		}
		return sorted[i].Name < sorted[j].Name
	})
	occupied := append([]Block(nil), placed...)
	var out []Block
	const steps = 48
	for _, b := range sorted {
		found := false
	scan:
		for iy := 0; iy <= steps && !found; iy++ {
			for ix := 0; ix <= steps; ix++ {
				cand := b
				cand.X = float64(ix) / steps * (dieW - b.W)
				cand.Y = float64(iy) / steps * (dieH - b.H)
				if !overlapsAny(cand, occupied) {
					occupied = append(occupied, cand)
					out = append(out, cand)
					found = true
					break scan
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("floorplan: no room for %s on the folded die", b.Name)
		}
	}
	return out, nil
}

func overlapsAny(b Block, placed []Block) bool {
	for _, o := range placed {
		if b.overlaps(o) {
			return true
		}
	}
	return false
}

func overlapArea(b Block, placed []Block) float64 {
	total := 0.0
	for _, o := range placed {
		if b.Die != o.Die {
			continue
		}
		w := math.Min(b.X+b.W, o.X+o.W) - math.Max(b.X, o.X)
		h := math.Min(b.Y+b.H, o.Y+o.H) - math.Max(b.Y, o.Y)
		if w > 0 && h > 0 {
			total += w * h
		}
	}
	return total
}

// stackedPeakCell rasterizes the through-stack density and returns the
// peak value and its cell.
func stackedPeakCell(f *Floorplan, grid int) (peak float64, cx, cy int) {
	sum := f.PowerMap(0, grid, grid)
	for d := 1; d < f.Dies; d++ {
		pm := f.PowerMap(d, grid, grid)
		for y := 0; y < grid; y++ {
			for x := 0; x < grid; x++ {
				sum.Add(x, y, pm.At(x, y))
			}
		}
	}
	cellArea := (f.DieW / float64(grid)) * (f.DieH / float64(grid))
	for y := 0; y < grid; y++ {
		for x := 0; x < grid; x++ {
			if d := sum.At(x, y) / cellArea; d > peak {
				peak, cx, cy = d, x, y
			}
		}
	}
	return peak, cx, cy
}

// hottestContributor returns the index of the highest-density movable
// block covering the given cell, or -1 when everything there is an
// anchored critical pair member.
func hottestContributor(f *Floorplan, cx, cy, grid int, mate map[string]string, mateOf map[string]string) int {
	cw := f.DieW / float64(grid)
	ch := f.DieH / float64(grid)
	px := (float64(cx) + 0.5) * cw
	py := (float64(cy) + 0.5) * ch
	best, bestDensity := -1, 0.0
	for i, b := range f.Blocks {
		if px < b.X || px >= b.X+b.W || py < b.Y || py >= b.Y+b.H {
			continue
		}
		if _, pinned := mate[b.Name]; pinned {
			continue
		}
		if _, pinned := mateOf[b.Name]; pinned {
			continue
		}
		if d := b.Density(); d > bestDensity {
			best, bestDensity = i, d
		}
	}
	return best
}

// moveToCoolest relocates block idx to the legal position of its die
// with the lowest local stacked density.
func moveToCoolest(f *Floorplan, idx, grid int) (Block, bool) {
	b := f.Blocks[idx]
	others := make([]Block, 0, len(f.Blocks)-1)
	for i, o := range f.Blocks {
		if i != idx && o.Die == b.Die {
			others = append(others, o)
		}
	}
	// Density field of everything except the victim.
	sum := stackedMapExcluding(f, idx, grid)
	cellArea := (f.DieW / float64(grid)) * (f.DieH / float64(grid))

	const steps = 32
	best := b
	bestScore := math.Inf(1)
	for iy := 0; iy <= steps; iy++ {
		for ix := 0; ix <= steps; ix++ {
			cand := b
			cand.X = float64(ix) / steps * (f.DieW - b.W)
			cand.Y = float64(iy) / steps * (f.DieH - b.H)
			if overlapsAny(cand, others) {
				continue
			}
			// Score: the max ambient density under the candidate.
			score := 0.0
			x0 := int(cand.X / (f.DieW / float64(grid)))
			x1 := int(math.Ceil((cand.X + cand.W) / (f.DieW / float64(grid))))
			y0 := int(cand.Y / (f.DieH / float64(grid)))
			y1 := int(math.Ceil((cand.Y + cand.H) / (f.DieH / float64(grid))))
			for y := y0; y < y1 && y < grid; y++ {
				for x := x0; x < x1 && x < grid; x++ {
					if d := sum.At(x, y) / cellArea; d > score {
						score = d
					}
				}
			}
			if score < bestScore {
				best, bestScore = cand, score
			}
		}
	}
	if math.IsInf(bestScore, 1) {
		return b, false
	}
	return best, true
}

// stackedMapExcluding rasterizes the through-stack power of every
// block except idx.
func stackedMapExcluding(f *Floorplan, idx, grid int) *thermal.PowerMap {
	tmp := f.Clone()
	tmp.Blocks[idx].Power = 0
	sum := tmp.PowerMap(0, grid, grid)
	for d := 1; d < tmp.Dies; d++ {
		pm := tmp.PowerMap(d, grid, grid)
		for y := 0; y < grid; y++ {
			for x := 0; x < grid; x++ {
				sum.Add(x, y, pm.At(x, y))
			}
		}
	}
	return sum
}
