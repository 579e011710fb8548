package floorplan

import "math"

// mm converts millimeters to meters for the preset layouts.
const mm = 1e-3

// Core2DuoDieW/H are the lateral dimensions of the Core 2 Duo-class
// baseline die (~143 mm², Figure 4/6).
const (
	Core2DuoDieW = 13.0 * mm
	Core2DuoDieH = 11.0 * mm
)

// Power budget of the 92 W baseline skew (Figure 6): two 41 W cores, a
// 7 W 4 MB L2 (the paper's SRAM power figure), and a 3 W bus interface.
const (
	SRAM4MBPowerW = 7.0
	BusPowerW     = 3.0
)

// Stacked-die cache powers from Figure 7 of the paper.
const (
	SRAM8MBPowerW   = 14.0 // the added stacked 8 MB SRAM
	DRAM32MBPowerW  = 3.1
	DRAM64MBPowerW  = 6.2
	DRAMTag32PowerW = 3.5 // on-die tag array for the 32 MB DRAM cache
)

// addCore appends one Core 2-class core's sub-blocks at the given
// origin. The internal layout reproduces Figure 6's hot spots: the FP
// units, reservation stations, and load/store unit run hottest.
func addCore(blocks []Block, suffix string, ox, oy float64) []Block {
	sub := []Block{
		{Name: "L1I" + suffix, X: 0.2, Y: 3.4, W: 1.9, H: 1.4, Power: 3.5},
		{Name: "decode" + suffix, X: 2.3, Y: 3.5, W: 1.8, H: 1.3, Power: 4.5},
		{Name: "BPU" + suffix, X: 4.3, Y: 3.6, W: 1.4, H: 1.2, Power: 2.0},
		{Name: "RS" + suffix, X: 0.3, Y: 1.8, W: 1.8, H: 1.5, Power: 6.0},
		{Name: "IntExec" + suffix, X: 2.3, Y: 1.9, W: 1.8, H: 1.4, Power: 6.5},
		{Name: "FP" + suffix, X: 4.3, Y: 1.9, W: 2.0, H: 1.6, Power: 7.0},
		{Name: "LdSt" + suffix, X: 0.3, Y: 0.2, W: 1.9, H: 1.5, Power: 6.0},
		{Name: "L1D" + suffix, X: 2.4, Y: 0.2, W: 2.2, H: 1.5, Power: 3.0},
		{Name: "ROB" + suffix, X: 4.8, Y: 0.3, W: 1.4, H: 1.2, Power: 2.5},
	}
	for _, b := range sub {
		b.X = ox + b.X*mm
		b.Y = oy + b.Y*mm
		b.W *= mm
		b.H *= mm
		blocks = append(blocks, b)
	}
	return blocks
}

// Core2DuoPlanar builds the Figure 4/6 baseline: two cores over a
// 4 MB shared L2 that occupies ~50% of the die, 92 W total.
func Core2DuoPlanar() *Floorplan {
	blocks := []Block{
		{Name: "L2", X: 0, Y: 0, W: 13 * mm, H: 5.5 * mm, Power: SRAM4MBPowerW},
		{Name: "bus", X: 0, Y: 5.5 * mm, W: 13 * mm, H: 0.5 * mm, Power: BusPowerW},
	}
	blocks = addCore(blocks, "0", 0, 6.0*mm)
	blocks = addCore(blocks, "1", 6.5*mm, 6.0*mm)
	return &Floorplan{
		Name: "core2duo-planar", DieW: Core2DuoDieW, DieH: Core2DuoDieH,
		Dies: 1, Blocks: blocks,
	}
}

// Core2DuoStacked12MB is Figure 7(b): the unchanged baseline die next
// to the heat sink with an 8 MB SRAM die stacked behind it (uniform
// 14 W), 106 W total.
func Core2DuoStacked12MB() *Floorplan {
	f := Core2DuoPlanar()
	f.Name = "core2duo-3d-12MB"
	f.Dies = 2
	f.Blocks = append(f.Blocks, Block{
		Name: "stacked-SRAM", Die: 1,
		X: 0, Y: 0, W: Core2DuoDieW, H: Core2DuoDieH, Power: SRAM8MBPowerW,
	})
	return f
}

// Core2DuoStacked32MB is Figure 7(c): the 4 MB SRAM L2 is removed
// (halving the CPU die), a tag strip is added, and a 32 MB DRAM die
// (3.1 W) is stacked. Total power is slightly below the baseline.
func Core2DuoStacked32MB() *Floorplan {
	dieH := 6.7 * mm // cores (5 mm) + bus + tag strip; ~52% of baseline
	blocks := []Block{
		{Name: "tags", X: 0, Y: 0, W: 13 * mm, H: 1.0 * mm, Power: DRAMTag32PowerW},
		{Name: "bus", X: 0, Y: 1.0 * mm, W: 13 * mm, H: 0.5 * mm, Power: BusPowerW},
	}
	blocks = addCore(blocks, "0", 0, 1.6*mm)
	blocks = addCore(blocks, "1", 6.5*mm, 1.6*mm)
	blocks = append(blocks, Block{
		Name: "stacked-DRAM", Die: 1,
		X: 0, Y: 0, W: 13 * mm, H: dieH, Power: DRAM32MBPowerW,
	})
	return &Floorplan{
		Name: "core2duo-3d-32MB", DieW: 13 * mm, DieH: dieH,
		Dies: 2, Blocks: blocks,
	}
}

// Core2DuoStacked64MB is Figure 7(d): the unchanged baseline die (its
// 4 MB SRAM now holds the DRAM tags) with a 64 MB DRAM die (6.2 W)
// stacked behind it.
func Core2DuoStacked64MB() *Floorplan {
	f := Core2DuoPlanar()
	f.Name = "core2duo-3d-64MB"
	f.Dies = 2
	f.Blocks = append(f.Blocks, Block{
		Name: "stacked-DRAM", Die: 1,
		X: 0, Y: 0, W: Core2DuoDieW, H: Core2DuoDieH, Power: DRAM64MBPowerW,
	})
	return f
}

// Pentium4DieW/H are the planar dimensions of the deeply pipelined
// Pentium 4-class die of Section 4 (Figure 9), ~142 mm².
const (
	Pentium4DieW = 13.5 * mm
	Pentium4DieH = 10.5 * mm
)

// Pentium4TotalW is the 147 W skew used in Table 5.
const Pentium4TotalW = 147.0

// Pentium4Planar builds the Figure 9 planar floorplan. The load-to-use
// path (D$ to F) and the FP register read path (RF across SIMD to FP)
// both cross the die laterally — the wire the 3D fold removes.
func Pentium4Planar() *Floorplan {
	b := []Block{
		{Name: "L2", X: 9.5, Y: 0, W: 4.0, H: 10.5, Power: 9},
		{Name: "bus", X: 0, Y: 0, W: 1.0, H: 10.5, Power: 6},
		{Name: "TC", X: 1.2, Y: 7.5, W: 3.0, H: 2.8, Power: 12},
		{Name: "FE", X: 4.4, Y: 7.5, W: 2.4, H: 2.8, Power: 11},
		{Name: "BPU", X: 7.0, Y: 7.5, W: 2.2, H: 2.8, Power: 6},
		{Name: "rename", X: 1.2, Y: 5.6, W: 2.2, H: 1.7, Power: 12},
		{Name: "uopQ", X: 3.6, Y: 5.6, W: 1.6, H: 1.7, Power: 5},
		{Name: "sched", X: 5.4, Y: 5.6, W: 2.2, H: 1.7, Power: 16},
		{Name: "intRF", X: 7.8, Y: 5.6, W: 1.4, H: 1.7, Power: 6},
		{Name: "F", X: 1.2, Y: 3.4, W: 2.6, H: 2.0, Power: 15},
		{Name: "D$", X: 4.0, Y: 3.4, W: 3.2, H: 2.0, Power: 6},
		{Name: "MOB", X: 7.4, Y: 3.4, W: 1.8, H: 2.0, Power: 6},
		{Name: "FP", X: 1.2, Y: 0.4, W: 2.6, H: 2.6, Power: 15},
		{Name: "SIMD", X: 4.0, Y: 0.4, W: 2.6, H: 2.6, Power: 13},
		{Name: "RF", X: 6.8, Y: 0.4, W: 2.4, H: 2.6, Power: 9},
	}
	for i := range b {
		b[i].X *= mm
		b[i].Y *= mm
		b[i].W *= mm
		b[i].H *= mm
	}
	return &Floorplan{
		Name: "p4-planar", DieW: Pentium4DieW, DieH: Pentium4DieH,
		Dies: 1, Blocks: b,
	}
}

// Pentium4ThreeDPowerFactor is the Logic+Logic power saving: the 3D
// floorplan removes 15% of total power (repeaters, repeating latches,
// shorter clock grid, less global metal).
const Pentium4ThreeDPowerFactor = 0.85

// Pentium4ThreeD builds the Figure 10 two-die fold: 50% footprint,
// hot compute blocks on the die next to the heat sink, storage-heavy
// blocks on the other die (D$ folded over F, RF over FP — the paths
// whose pipe stages the fold eliminates). Block powers carry the 15%
// saving. The resulting through-stack power density is ~1.3x the
// planar peak, matching the paper's repaired placement.
func Pentium4ThreeD() *Floorplan {
	const pf = Pentium4ThreeDPowerFactor
	// Die next to the heat sink: the hot execution cluster, with the
	// scheduler adjacent to the units it feeds.
	die0 := []Block{
		{Name: "sched", X: 0.5, Y: 4.4, W: 2.2, H: 1.7, Power: 16 * pf},
		{Name: "rename", X: 3.0, Y: 4.4, W: 2.2, H: 1.7, Power: 12 * pf},
		{Name: "TC", X: 5.6, Y: 4.4, W: 3.0, H: 2.4, Power: 12 * pf},
		{Name: "F", X: 0.3, Y: 2.2, W: 2.6, H: 2.0, Power: 15 * pf},
		{Name: "intRF", X: 3.4, Y: 2.2, W: 1.4, H: 1.7, Power: 6 * pf},
		{Name: "SIMD", X: 2.7, Y: 0.2, W: 2.6, H: 1.8, Power: 13 * pf},
		{Name: "FP", X: 5.4, Y: 0.2, W: 2.6, H: 2.6, Power: 15 * pf},
	}
	// Second die: storage and front-end, folded over the hot cluster.
	// D$ sits directly over F (load-to-use), RF directly over FP (the
	// FP register read path), per Figure 10.
	die1 := []Block{
		{Name: "D$", X: 0.3, Y: 2.2, W: 3.2, H: 2.0, Power: 6 * pf},
		{Name: "RF", X: 5.4, Y: 0.2, W: 2.4, H: 2.6, Power: 9 * pf},
		{Name: "MOB", X: 7.3, Y: 3.0, W: 1.8, H: 1.6, Power: 6 * pf},
		{Name: "FE", X: 0.3, Y: 4.8, W: 2.4, H: 2.2, Power: 11 * pf},
		{Name: "BPU", X: 3.0, Y: 4.8, W: 2.2, H: 2.2, Power: 6 * pf},
		{Name: "uopQ", X: 5.5, Y: 4.8, W: 1.6, H: 2.2, Power: 5 * pf},
		{Name: "L2", X: 7.3, Y: 4.8, W: 2.0, H: 2.2, Power: 9 * pf},
		{Name: "bus", X: 0.3, Y: 7.1, W: 9.0, H: 0.35, Power: 6 * pf},
	}
	var blocks []Block
	for _, b := range die0 {
		b.X *= mm
		b.Y *= mm
		b.W *= mm
		b.H *= mm
		b.Die = 0
		blocks = append(blocks, b)
	}
	for _, b := range die1 {
		b.X *= mm
		b.Y *= mm
		b.W *= mm
		b.H *= mm
		b.Die = 1
		blocks = append(blocks, b)
	}
	return &Floorplan{
		Name: "p4-3d", DieW: 9.6 * mm, DieH: 7.5 * mm,
		Dies: 2, Blocks: blocks,
	}
}

// Pentium4WorstCase builds the paper's "3D Worstcase": no power saving
// and a straight 2x power-density doubling — the planar floorplan
// shrunk to half area and duplicated on both dies with aligned hot
// spots, 147 W total.
func Pentium4WorstCase() *Floorplan {
	planar := Pentium4Planar()
	s := 1 / math.Sqrt2
	var blocks []Block
	for die := 0; die < 2; die++ {
		for _, b := range planar.Blocks {
			blocks = append(blocks, Block{
				Name: b.Name + suffixFor(die),
				X:    b.X * s, Y: b.Y * s, W: b.W * s, H: b.H * s,
				Power: b.Power / 2,
				Die:   die,
			})
		}
	}
	return &Floorplan{
		Name: "p4-3d-worstcase", DieW: Pentium4DieW * s, DieH: Pentium4DieH * s,
		Dies: 2, Blocks: blocks,
	}
}

func suffixFor(die int) string {
	if die == 0 {
		return "/top"
	}
	return "/bot"
}

// LoadToUseNets are the performance-critical connections Figure 9
// highlights: the load-to-use path (D$ to the functional units) and
// the FP register read path (RF past SIMD to FP).
func LoadToUseNets() []Net {
	return []Net{
		{A: "D$", B: "F", Weight: 3},  // load to use, most critical
		{A: "RF", B: "FP", Weight: 2}, // FP register read to execute
		{A: "RF", B: "SIMD", Weight: 2},
		{A: "sched", B: "F", Weight: 1},
		{A: "sched", B: "FP", Weight: 1},
		{A: "TC", B: "rename", Weight: 1},
		{A: "rename", B: "sched", Weight: 1},
	}
}
