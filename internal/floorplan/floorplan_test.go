package floorplan

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBlockGeometry(t *testing.T) {
	b := Block{X: 1, Y: 2, W: 3, H: 4, Power: 24}
	if b.Area() != 12 {
		t.Fatalf("Area = %v", b.Area())
	}
	if b.Density() != 2 {
		t.Fatalf("Density = %v", b.Density())
	}
	cx, cy := b.Center()
	if cx != 2.5 || cy != 4 {
		t.Fatalf("Center = %v,%v", cx, cy)
	}
	if (Block{}).Density() != 0 {
		t.Fatal("zero block density should be 0")
	}
}

func TestOverlapDetection(t *testing.T) {
	f := &Floorplan{
		Name: "t", DieW: 0.01, DieH: 0.01, Dies: 2,
		Blocks: []Block{
			{Name: "a", X: 0, Y: 0, W: 0.005, H: 0.005, Die: 0},
			{Name: "b", X: 0.002, Y: 0.002, W: 0.005, H: 0.005, Die: 0},
		},
	}
	if f.Validate() == nil {
		t.Fatal("overlap not detected")
	}
	// Same rectangles on different dies are fine.
	f.Blocks[1].Die = 1
	if err := f.Validate(); err != nil {
		t.Fatalf("cross-die overlap rejected: %v", err)
	}
	// Touching edges are fine.
	f.Blocks[1] = Block{Name: "b", X: 0.005, Y: 0, W: 0.005, H: 0.005, Die: 0}
	if err := f.Validate(); err != nil {
		t.Fatalf("abutting blocks rejected: %v", err)
	}
}

func TestValidateBounds(t *testing.T) {
	f := &Floorplan{
		Name: "t", DieW: 0.01, DieH: 0.01, Dies: 1,
		Blocks: []Block{{Name: "a", X: 0.008, Y: 0, W: 0.005, H: 0.005}},
	}
	if f.Validate() == nil {
		t.Fatal("out-of-bounds block accepted")
	}
	f.Blocks[0] = Block{Name: "a", X: 0, Y: 0, W: 0.005, H: 0.005, Die: 3}
	if f.Validate() == nil {
		t.Fatal("bad die index accepted")
	}
	f.Blocks[0] = Block{Name: "a", X: 0, Y: 0, W: 0, H: 0.005}
	if f.Validate() == nil {
		t.Fatal("zero-width block accepted")
	}
}

func TestPresetsValid(t *testing.T) {
	presets := []*Floorplan{
		Core2DuoPlanar(), Core2DuoStacked12MB(), Core2DuoStacked32MB(),
		Core2DuoStacked64MB(), Pentium4Planar(), Pentium4ThreeD(),
		Pentium4WorstCase(),
	}
	for _, f := range presets {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestPresetPowerBudgets(t *testing.T) {
	cases := []struct {
		fp   *Floorplan
		want float64
	}{
		{Core2DuoPlanar(), 92},
		{Core2DuoStacked12MB(), 106},
		{Core2DuoStacked64MB(), 98.2},
		{Pentium4Planar(), 147},
		{Pentium4WorstCase(), 147},
	}
	for _, c := range cases {
		if got := c.fp.TotalPower(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: total power %.2f, want %.2f", c.fp.Name, got, c.want)
		}
	}
	// 32MB option: slightly below baseline (L2 removed, tags + DRAM added).
	p32 := Core2DuoStacked32MB().TotalPower()
	if p32 >= 92 || p32 < 88 {
		t.Errorf("32MB option power %.2f, want slightly below 92", p32)
	}
	// 3D P4: 15% power saving.
	p3d := Pentium4ThreeD().TotalPower()
	if math.Abs(p3d-147*0.85) > 0.5 {
		t.Errorf("3D P4 power %.2f, want ~%.2f", p3d, 147*0.85)
	}
}

func TestCoresMatchPaperHotspots(t *testing.T) {
	f := Core2DuoPlanar()
	// The paper: greatest power concentration in FP, RS, LdSt.
	avg := f.TotalPower() / (f.DieW * f.DieH)
	for _, name := range []string{"FP0", "RS0", "LdSt0"} {
		b, ok := f.Block(name)
		if !ok {
			t.Fatalf("block %s missing", name)
		}
		if b.Density() < 2*avg {
			t.Errorf("%s density %.3g not a hotspot (avg %.3g)", name, b.Density(), avg)
		}
	}
	// The cache is the coolest large structure.
	l2, _ := f.Block("L2")
	if l2.Density() > avg/2 {
		t.Errorf("L2 density %.3g too hot", l2.Density())
	}
}

func TestPowerMapConservesPower(t *testing.T) {
	for _, f := range []*Floorplan{Core2DuoPlanar(), Pentium4Planar(), Pentium4ThreeD()} {
		total := 0.0
		for d := 0; d < f.Dies; d++ {
			total += f.PowerMap(d, 48, 48).Total()
		}
		if math.Abs(total-f.TotalPower()) > 0.01*f.TotalPower() {
			t.Errorf("%s: rasterized %.2f W, blocks %.2f W", f.Name, total, f.TotalPower())
		}
	}
}

func TestPowerMapConservationQuick(t *testing.T) {
	f := func(xr, yr, wr, hr uint8, p uint8) bool {
		die := 0.01
		x := float64(xr) / 255 * die * 0.8
		y := float64(yr) / 255 * die * 0.8
		w := 0.001 + float64(wr)/255*(die-x-0.001)
		h := 0.001 + float64(hr)/255*(die-y-0.001)
		fp := &Floorplan{
			Name: "q", DieW: die, DieH: die, Dies: 1,
			Blocks: []Block{{Name: "b", X: x, Y: y, W: w, H: h, Power: float64(p)}},
		}
		if fp.Validate() != nil {
			return true // skip degenerate
		}
		got := fp.PowerMap(0, 17, 23).Total()
		return math.Abs(got-float64(p)) < 1e-6*math.Max(1, float64(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStackedDensityRatios(t *testing.T) {
	const nx, ny = 64, 64
	planar := Pentium4Planar().PeakDensity(0, nx, ny)

	// The tuned 3D floorplan lands near the paper's 1.3x increase.
	three := Pentium4ThreeD().StackedPeakDensity(nx, ny)
	ratio := three / planar
	if ratio < 1.1 || ratio > 1.5 {
		t.Errorf("3D density ratio = %.3f, want ~1.3", ratio)
	}

	// The worst case is exactly 2x by construction.
	worst := Pentium4WorstCase().StackedPeakDensity(nx, ny)
	if r := worst / planar; math.Abs(r-2) > 0.1 {
		t.Errorf("worst-case density ratio = %.3f, want 2.0", r)
	}
}

func TestWireLengthShrinksIn3D(t *testing.T) {
	nets := LoadToUseNets()
	planar, err := Pentium4Planar().WireLength(nets)
	if err != nil {
		t.Fatal(err)
	}
	three, err := Pentium4ThreeD().WireLength(nets)
	if err != nil {
		t.Fatal(err)
	}
	// The fold must substantially shorten the weighted wire length —
	// that is the premise of Logic+Logic stacking.
	if three > 0.65*planar {
		t.Errorf("3D wire length %.4f not well below planar %.4f", three, planar)
	}
	// The two highlighted paths (load-to-use, FP register read) all but
	// vanish: the fold places them directly above each other.
	pathLen := func(f *Floorplan, a, b string) float64 {
		l, err := f.WireLength([]Net{{A: a, B: b, Weight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if l3, l2 := pathLen(Pentium4ThreeD(), "D$", "F"), pathLen(Pentium4Planar(), "D$", "F"); l3 > 0.3*l2 {
		t.Errorf("load-to-use path %.5f not <30%% of planar %.5f", l3, l2)
	}
	if l3, l2 := pathLen(Pentium4ThreeD(), "RF", "FP"), pathLen(Pentium4Planar(), "RF", "FP"); l3 > 0.3*l2 {
		t.Errorf("FP read path %.5f not <30%% of planar %.5f", l3, l2)
	}
}

func TestWireLengthMissingBlock(t *testing.T) {
	f := Core2DuoPlanar()
	if _, err := f.WireLength([]Net{{A: "nope", B: "L2"}}); err == nil {
		t.Fatal("missing block accepted")
	}
}

func TestScalePowerAndClone(t *testing.T) {
	f := Core2DuoPlanar()
	g := f.Clone()
	g.ScalePower(0.5)
	if math.Abs(g.TotalPower()-46) > 1e-9 {
		t.Fatalf("scaled power = %v", g.TotalPower())
	}
	if math.Abs(f.TotalPower()-92) > 1e-9 {
		t.Fatal("Clone aliases blocks")
	}
}

func TestDiePower(t *testing.T) {
	f := Core2DuoStacked12MB()
	if math.Abs(f.DiePower(0)-92) > 1e-9 {
		t.Errorf("die0 power = %v", f.DiePower(0))
	}
	if math.Abs(f.DiePower(1)-14) > 1e-9 {
		t.Errorf("die1 power = %v", f.DiePower(1))
	}
	// Paper: the highest-power die sits next to the heat sink (die 0).
	if f.DiePower(1) > f.DiePower(0) {
		t.Error("hot die not adjacent to heat sink")
	}
}

func TestThreeDFoldsCriticalPairs(t *testing.T) {
	f := Pentium4ThreeD()
	dcache, _ := f.Block("D$")
	fblk, _ := f.Block("F")
	if dcache.Die == fblk.Die {
		t.Error("D$ and F on the same die; the fold must separate them")
	}
	// D$ directly overlaps F laterally (Figure 10).
	if !(Block{X: dcache.X, Y: dcache.Y, W: dcache.W, H: dcache.H, Die: fblk.Die}).overlaps(fblk) {
		t.Error("D$ does not overlap F laterally")
	}
	rf, _ := f.Block("RF")
	fp, _ := f.Block("FP")
	if rf.Die == fp.Die {
		t.Error("RF and FP on the same die")
	}
}
