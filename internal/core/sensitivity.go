package core

import (
	"context"
	"fmt"

	"diestack/internal/floorplan"
	"diestack/internal/thermal"
)

// SweepLayer selects which layer's conductivity Figure 3 varies.
type SweepLayer int

const (
	// SweepCuMetal varies the Cu metal stack (actual value 12 W/mK).
	SweepCuMetal SweepLayer = iota
	// SweepBond varies the die-to-die bonding layer (actual 60 W/mK).
	SweepBond
)

// String names the swept layer as in Figure 3's legend.
func (l SweepLayer) String() string {
	switch l {
	case SweepCuMetal:
		return "Cu Metal Layers"
	case SweepBond:
		return "Bonding Layer"
	default:
		return fmt.Sprintf("SweepLayer(%d)", int(l))
	}
}

// layerSlug names the swept layer in workspace-key form.
func layerSlug(l SweepLayer) string {
	switch l {
	case SweepCuMetal:
		return "cu-metal"
	case SweepBond:
		return "bond"
	default:
		return fmt.Sprintf("layer-%d", int(l))
	}
}

// SensitivityPoint is one point of a Figure 3 series.
type SensitivityPoint struct {
	ConductivityWmK float64
	PeakC           float64
}

// Figure3Conductivities returns the sweep points of the paper's
// Figure 3 x-axis (60 down to 3 W/mK).
func Figure3Conductivities() []float64 {
	return []float64{60, 50, 40, 30, 20, 12, 9, 6, 3}
}

// RunFigure3 sweeps one layer's thermal conductivity on the stacked
// microprocessor — the Logic+Logic fold, where the second die carries
// roughly half the power and every watt of it must cross the metal
// stacks and the bonding layer to reach the heat sink. That is why the
// figure shows the Cu metal layers dominating: two 12 um metal stacks
// sit in that path versus one 15 um bond. spec.Grid <= 0 selects the
// default resolution.
func RunFigure3(ctx context.Context, spec RunSpec, layer SweepLayer, ks []float64) ([]SensitivityPoint, error) {
	if len(ks) == 0 {
		ks = Figure3Conductivities()
	}
	// Every point is checked before the first solve, so a bad one late
	// in the list costs no solves.
	if err := checkConductivities(ks); err != nil {
		return nil, err
	}
	fp := floorplan.Pentium4ThreeD()
	nx, ny := gridOrDefault(spec.Grid)
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	top := fp.PowerMapCentered(0, nx, ny, pkgW, pkgH)
	bot := fp.PowerMapCentered(1, nx, ny, pkgW, pkgH)

	out := make([]SensitivityPoint, 0, len(ks))
	for _, k := range ks {
		opt := thermal.StackOptions{Nx: nx, Ny: ny, TopH: thermal.PerformanceTopH}
		switch layer {
		case SweepCuMetal:
			opt.CuMetalK = k
		case SweepBond:
			opt.BondK = k
		default:
			return nil, fmt.Errorf("core: unknown sweep layer %d", int(layer))
		}
		stack := thermal.ThreeDStack(fp.DieW, fp.DieH,
			thermal.LogicDie(top), thermal.SRAMDie(bot), opt)
		field, err := solveStack(ctx, spec, fmt.Sprintf("fig3/%s/k%g/g%d", layerSlug(layer), k, nx), stack)
		if err != nil {
			return nil, fmt.Errorf("core: thermal solve at %s=%g W/mK: %w", layer, k, err)
		}
		out = append(out, SensitivityPoint{ConductivityWmK: k, PeakC: field.Peak()})
	}
	return out, nil
}

// checkConductivities rejects a sweep with a non-positive point.
func checkConductivities(ks []float64) error {
	for _, k := range ks {
		if k <= 0 {
			return fmt.Errorf("core: non-positive conductivity %g", k)
		}
	}
	return nil
}

// Figure6Maps returns the baseline planar power-density map (W/m²) and
// temperature map (degC) of the active layer, the two panels of
// Figure 6. spec.Grid <= 0 selects the default resolution.
func Figure6Maps(ctx context.Context, spec RunSpec) (powerDensity [][]float64, temperature [][]float64, err error) {
	fp := floorplan.Core2DuoPlanar()
	nx, ny := gridOrDefault(spec.Grid)
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	pm := fp.PowerMapCentered(0, nx, ny, pkgW, pkgH)

	cellArea := (pkgW / float64(nx)) * (pkgH / float64(ny))
	powerDensity = make([][]float64, ny)
	for y := range powerDensity {
		powerDensity[y] = make([]float64, nx)
		for x := 0; x < nx; x++ {
			powerDensity[y][x] = pm.At(x, y) / cellArea
		}
	}

	stack := thermal.PlanarStack(fp.DieW, fp.DieH, pm, thermal.StackOptions{Nx: nx, Ny: ny})
	field, err := solveStack(ctx, spec, fmt.Sprintf("fig6/planar/g%d", nx), stack)
	if err != nil {
		return nil, nil, fmt.Errorf("core: planar thermal solve: %w", err)
	}
	return powerDensity, field.LayerMap(stack.LayerIndex("active")), nil
}
