package core

import (
	"context"
	"math"
	"testing"
)

// Peaks the retired alternating-direction line-SOR schedule solved the
// paper's stacks to at the default 64x64 grid, before multigrid became
// the only schedule. Every thermal figure is built from these solves.
var (
	lineSORFigure8Peak64 = map[MemoryOption]float64{
		Planar4MB:   88.364251,
		Stacked12MB: 92.771789,
		Stacked32MB: 88.392784,
		Stacked64MB: 90.096264,
	}
	// Table 5 solves the 3D logic stack and its planar baseline.
	lineSORTable5Peak64 = map[LogicOption]float64{
		LogicPlanar: 98.632824,
		Logic3D:     108.755509,
	}
)

// TestThermalMatchesLineSORReference holds the Figure 8 and Table 5
// solves to the line-SOR reference within 0.005 K: the schedule change
// must not move any reported temperature.
func TestThermalMatchesLineSORReference(t *testing.T) {
	ctx := context.Background()
	spec := RunSpec{Grid: 64}
	const tol = 0.005
	for o, want := range lineSORFigure8Peak64 {
		r, err := RunMemoryThermal(ctx, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r.PeakC - want); d > tol {
			t.Errorf("Figure 8 %s: peak %.6f is %.6f K from line-SOR %.6f", o, r.PeakC, d, want)
		}
	}
	for o, want := range lineSORTable5Peak64 {
		r, err := RunLogicThermal(ctx, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r.PeakC - want); d > tol {
			t.Errorf("Table 5 %s: peak %.6f is %.6f K from line-SOR %.6f", o, r.PeakC, d, want)
		}
	}
}
