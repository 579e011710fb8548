package thermal

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomStack draws a planar or face-to-face stack with odd or even
// lateral sizes in [5, 40] and random power maps: a random background
// plus a few random hot rectangles per powered layer.
func randomStack(rng *rand.Rand) *Stack {
	nx, ny := 5+rng.Intn(36), 5+rng.Intn(36)
	powerMap := func() *PowerMap {
		pm := NewPowerMap(nx, ny).FillUniform(rng.Float64() * 10)
		for k := rng.Intn(4); k > 0; k-- {
			x0, y0 := rng.Intn(nx), rng.Intn(ny)
			pm.FillRect(x0, y0, x0+1+rng.Intn(nx-x0), y0+1+rng.Intn(ny-y0), 1+rng.Float64()*40)
		}
		return pm
	}
	opt := StackOptions{Nx: nx, Ny: ny}
	if rng.Intn(2) == 0 {
		opt.TopH = PerformanceTopH
	}
	if rng.Intn(2) == 0 {
		return PlanarStack(0.008+rng.Float64()*0.006, 0.008+rng.Float64()*0.006, powerMap(), opt)
	}
	return ThreeDStack(0.008+rng.Float64()*0.006, 0.008+rng.Float64()*0.006,
		LogicDie(powerMap()), DRAMDie(powerMap()), opt)
}

// TestPhysicalLawsRandomStacks asserts two physical laws on randomized
// stacks, so every lateral and vertical index of the solver is
// exercised at odd and even sizes: a steady field carries exactly the
// injected power out through its boundaries (energy balance within the
// solver's tolerance), and scaling every power map up heats the peak
// strictly.
func TestPhysicalLawsRandomStacks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const tol = 1e-3
	for n := 0; n < 12; n++ {
		s := randomStack(rng)
		p := s.TotalPower()
		f, err := Solve(context.Background(), s, SolveOptions{Tolerance: tol})
		if err != nil {
			t.Fatalf("stack %d (%dx%d, %d layers): %v", n, s.Nx, s.Ny, len(s.Layers), err)
		}
		if out := f.HeatOut(); math.Abs(out-p) > tol*p {
			t.Errorf("stack %d (%dx%d): heat out %.6f W, injected %.6f W", n, s.Nx, s.Ny, out, p)
		}

		hot := *s
		hot.Layers = append([]Layer(nil), s.Layers...)
		for i := range hot.Layers {
			if pm := hot.Layers[i].Power; pm != nil {
				hot.Layers[i].Power = pm.Clone().Scale(1.25)
			}
		}
		g, err := Solve(context.Background(), &hot, SolveOptions{Tolerance: tol})
		if err != nil {
			t.Fatalf("scaled stack %d: %v", n, err)
		}
		if g.Peak() <= f.Peak() {
			t.Errorf("stack %d (%dx%d): peak %.6f at 1.25x power, not above %.6f", n, s.Nx, s.Ny, g.Peak(), f.Peak())
		}
	}
}
