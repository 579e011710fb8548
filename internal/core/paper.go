package core

import (
	"math"

	"diestack/internal/floorplan"
)

// anchor is one value of the paper's evaluation and the band the
// reproduction's measurement of it must fall strictly inside.
// The core tests measure every row (anchorTests in paper_test.go names
// the test for each E-number); the renderers print Paper
// beside the measured value. Table 4's per-functionality values live
// in synth.Table4Groups, not here.
type anchor struct {
	// E is the EXPERIMENTS.md section, "E1" … "E11". Tables 2 and 3
	// (E2, E3) are constants that the CLI goldens pin byte for byte.
	E string
	// Quantity names what is measured, unique within E. "a - b" is a
	// difference, and a band of (0, +Inf) on it pins an ordering.
	Quantity string
	// Paper is the paper's value, NaN where the paper shows only a
	// shape.
	Paper float64
	// Lo and Hi bound the measurement, both exclusive. They hold Paper
	// too, unless the row names a deviation (deviations in
	// paper_test.go).
	Lo, Hi float64
}

var inf = math.Inf(1)

// anchors is the paper as data: every value the CLIs print beside a
// measurement, and every band the reproduction is held to. Thermal
// rows are measured at a 32-cell grid, Table 4 at 30,000 instructions
// per profile, and the E4 and E11 rows at reference workload scale.
var anchors = []anchor{
	// Figure 3: the sweep from 60 to 3 W/mK raises the peak, and the
	// Cu metal layers more than the bond.
	{"E1", "Cu metal rise", math.NaN(), 0, inf},
	{"E1", "bond rise", math.NaN(), 0, inf},
	{"E1", "Cu metal rise - bond rise", math.NaN(), 0, inf},

	// Figure 5's headline: the 32 MB stack against the 4 MB baseline,
	// in percent CPMA reduction.
	{"E4", "avg CPMA reduction", 13, 5, inf},
	{"E4", "peak CPMA reduction", 55, 35, inf},

	// Figure 6: the planar baseline's hottest spot (the calibrated
	// anchor) and coolest, in degC.
	near("E5", "peak", 88.35, 2),
	{"E5", "coolest", 59, 55, 65},

	// Figure 7: total power in W. The paper calls the 32 MB stack only
	// "slightly lower".
	near("E6", "power 2D 4MB", 92, 0.01),
	near("E6", "power 3D 12MB", 106, 0.01),
	near("E6", "power 3D 64MB", 98.2, 0.01),

	// Figure 8(a): peak temperatures in degC; the SRAM stack is the
	// hottest, the 32 MB DRAM stack is nearly neutral, 64 MB between.
	near("E7", "peak 2D 4MB", 88.35, 1),
	near("E7", "peak 3D 12MB", 92.85, 1),
	near("E7", "peak 3D 32MB", 88.43, 1),
	near("E7", "peak 3D 64MB", 90.27, 1),
	{"E7", "peak 3D 12MB - peak 3D 64MB", 92.85 - 90.27, 0, inf},
	{"E7", "peak 3D 64MB - peak 3D 32MB", 90.27 - 88.43, 0, inf},
	{"E7", "peak 3D 32MB - peak 2D 4MB", 0.08, -2.5, 2.5},

	// Table 4's total, in percent, and the interconnect power the fold
	// saves, in percent of the planar design's power.
	{"E8", "stages eliminated", 25, 20, 30},
	{"E8", "total perf gain", 15, 10, 20},
	{"E8", "wire power saving", 15, 10, 20},

	// Figure 11: peak temperatures in degC (the planar one is the
	// calibrated anchor), through-stack peak power density against the
	// planar floorplan, and the fold's power in W. The reproduction's
	// worst case overshoots the paper's (EXPERIMENTS.md E9), so its rise
	// is held to at least twice the tuned fold's where the paper's is
	// 1.88 times.
	near("E9", "peak 2D Baseline", 98.6, 1),
	{"E9", "peak 3D", 112.5, 105, 115},
	{"E9", "peak 3D Worstcase", 124.75, 120, 140},
	{"E9", "peak 3D - peak 2D Baseline", 112.5 - 98.6, 0, inf},
	{"E9", "peak 3D Worstcase - peak 3D", 124.75 - 112.5, 0, inf},
	{"E9", "3D Worstcase rise over 3D rise", (124.75 - 98.6) / (112.5 - 98.6), 2, inf},
	{"E9", "density 3D", 1.3, 1.1, 1.5},
	near("E9", "density 3D Worstcase", 2, 0.15),
	near("E9", "power 3D", 0.85*floorplan.Pentium4TotalW, 0.5),

	// Table 5: power in W and performance in percent of the baseline.
	// The paper prints Same Freq.'s 124.95 W as 125.
	near("E10", "Baseline power", floorplan.Pentium4TotalW, 0.01),
	near("E10", "Same Freq. power", 0.85*floorplan.Pentium4TotalW, 0.01),
	{"E10", "Same Temp power", 97.3, 80, 120},
	{"E10", "Same Temp perf", 108, 102, 113},
	{"E10", "Same Perf. power", 68.2, 60, 75},
	near("E10", "Same Perf. perf", 100, 1e-6),

	// The abstract's memory claims for the 32 MB stack: off-die traffic
	// reduced by a factor, and average bus power saved in W.
	{"E11", "traffic reduction", 3, 1.8, inf},
	{"E11", "bus power saving", 0.5, 0, inf},
}

// near is a row whose band is paper ± tol.
func near(e, quantity string, paper, tol float64) anchor {
	return anchor{e, quantity, paper, paper - tol, paper + tol}
}

// paperValue returns the paper's value of row e/quantity.
func paperValue(e, quantity string) float64 {
	for _, a := range anchors {
		if a.E == e && a.Quantity == quantity {
			return a.Paper
		}
	}
	panic("core: no paper anchor " + e + "/" + quantity)
}
