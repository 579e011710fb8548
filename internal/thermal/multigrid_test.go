package thermal

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
)

// table5Stack is the Figure-1/Table-5 face-to-face pair: a powered
// logic die bonded to a DRAM die.
func table5Stack(grid int) *Stack {
	cpu := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 60)
	mem := NewPowerMap(grid, grid).FillUniform(3)
	return ThreeDStack(0.012, 0.012, LogicDie(cpu), DRAMDie(mem), StackOptions{Nx: grid, Ny: grid})
}

// Line-SOR reference for table5Stack(32): the alternating-direction
// line-SOR schedule (omega 1.8, the same stagnation and energy tests)
// solved this stack to these extremes before multigrid became the only
// schedule.
const (
	lineSORTable5Peak32 = 61.852217
	lineSORTable5Min32  = 53.625017
)

// TestMultigridAgreesWithLineSOR holds the solver to the retired
// line-SOR schedule's recorded answer on the Table 5 stack, and to a
// closed form on a laterally uniform stack, where no lateral heat flows
// and the peak is ambient + P·ΣR exactly.
func TestMultigridAgreesWithLineSOR(t *testing.T) {
	f, err := Solve(context.Background(), table5Stack(32), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Recoveries() != 0 {
		t.Fatalf("needed %d recoveries on a healthy stack", f.Recoveries())
	}
	if d := math.Abs(f.Peak() - lineSORTable5Peak32); d > 0.005 {
		t.Errorf("peak %.6f is %.6f K from the line-SOR reference %.6f", f.Peak(), d, lineSORTable5Peak32)
	}
	if d := math.Abs(f.Min() - lineSORTable5Min32); d > 0.005 {
		t.Errorf("min %.6f is %.6f K from the line-SOR reference %.6f", f.Min(), d, lineSORTable5Min32)
	}

	// Laterally uniform: copper sink, TIM, bulk silicon, and a powered
	// active layer on an adiabatic bottom. Every heat path is vertical,
	// through the layers above the source plus half the source layer
	// (uniform generation on an adiabatic face) to the film.
	const (
		grid  = 32
		width = 0.012
		power = 80.0
		topH  = 2500.0
	)
	layers := []Layer{
		{Name: "sink", Thickness: 3e-3, Material: CopperIHS},
		{Name: "TIM", Thickness: 50e-6, Material: TIM},
		{Name: "bulk", Thickness: 750e-6, Material: Silicon},
		{Name: "active", Thickness: 2e-6, Material: Silicon,
			Power: NewPowerMap(grid, grid).FillUniform(power)},
	}
	s := &Stack{Width: width, Height: width, Nx: grid, Ny: grid, Layers: layers, TopH: topH, AmbientC: AmbientC}
	area := width * width
	sumR := 1 / (topH * area)
	for _, l := range layers[:len(layers)-1] {
		sumR += l.Thickness / (l.Material.Conductivity * area)
	}
	src := layers[len(layers)-1]
	sumR += src.Thickness / (2 * src.Material.Conductivity * area)
	want := AmbientC + power*sumR

	uf, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(uf.Peak() - want); d > 0.005 {
		t.Errorf("uniform stack peak %.6f, closed form %.6f (off by %.6f K)", uf.Peak(), want, d)
	}
}

// TestMultigridDeterministic checks the run-to-run reproducibility
// claim: the same stack and options produce a byte-identical field,
// both across fresh Workspaces and across re-solves on a reused one.
func TestMultigridDeterministic(t *testing.T) {
	solve := func() (*Workspace, *Field) {
		w, err := NewWorkspace(benchStack(32))
		if err != nil {
			t.Fatal(err)
		}
		f, err := w.Solve(context.Background(), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return w, f
	}
	w1, f1 := solve()
	defer w1.Close()
	w2, f2 := solve()
	defer w2.Close()
	for i := range f1.t {
		if f1.t[i] != f2.t[i] {
			t.Fatalf("fresh workspaces differ at cell %d: %v vs %v", i, f1.t[i], f2.t[i])
		}
	}
	f3, err := w1.Solve(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.t {
		if f1.t[i] != f3.t[i] {
			t.Fatalf("re-solve differs at cell %d: %v vs %v", i, f1.t[i], f3.t[i])
		}
	}
}

// TestMultigridFallbackRecovers injects a divergence (smoother
// relaxation at 2.5, outside the (0,2) stability interval) and
// requires the recovery rung — the z-line smoother alone on the fine
// level at a damped factor — to return a converged field.
func TestMultigridFallbackRecovers(t *testing.T) {
	w, err := NewWorkspace(benchStack(32))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f, err := w.Solve(context.Background(), SolveOptions{Omega: 2.5})
	if err != nil {
		t.Fatalf("fallback did not recover: %v", err)
	}
	if f.Recoveries() == 0 {
		t.Fatal("omega 2.5 should have tripped the divergence watchdog")
	}
	if res := math.Abs(f.HeatOut()-92) / 92; res > 1e-3 {
		t.Fatalf("recovered field violates energy tolerance: residual %g", res)
	}
	ref, err := w.Solve(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(f.Peak() - ref.Peak()); d > 0.05 {
		t.Fatalf("recovered peak %.4f differs from the clean solve's %.4f", f.Peak(), ref.Peak())
	}
	t.Logf("recovered after %d restart(s) and %d fine sweeps, peak %.2f C", f.Recoveries(), f.Sweeps(), f.Peak())
}

// TestMultigridFallbackExhausts checks the failure edge: with recovery
// disabled, a diverging attempt must fail with ErrDiverged instead of
// silently switching to the recovery rung.
func TestMultigridFallbackExhausts(t *testing.T) {
	_, err := Solve(context.Background(), benchStack(32), SolveOptions{
		Omega:         2.5,
		MaxRecoveries: -1,
	})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) || !ce.Diverged {
		t.Fatalf("err = %#v, want diverged *ConvergenceError", err)
	}
}

// TestMultigridVCycleAllocs pins the steady-state hot path: once the
// Workspace's hierarchy is warm, a V-cycle and the convergence delta
// each steady and transient cycle takes must not allocate (the
// one-time hierarchy build is exempt by design). The V-cycle reaches
// every smoother and transfer kernel, so an allocation added to any of
// them fails here.
func TestMultigridVCycleAllocs(t *testing.T) {
	w, err := NewWorkspace(benchStack(32))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Solve(context.Background(), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	h := w.mg
	// A later attempt refactorizes every column class in place.
	if allocs := testing.AllocsPerRun(10, func() { h.beginSolve(0.25) }); allocs != 0 {
		t.Fatalf("beginSolve allocates %v objects per run, want 0", allocs)
	}
	var delta float64
	if allocs := testing.AllocsPerRun(10, func() {
		h.cycle(1.0, false)
		delta += maxAbsDiff(w.sv.t, h.tPrev)
	}); allocs != 0 {
		t.Fatalf("V-cycle and delta allocate %v objects per run, want 0", allocs)
	}

	// With a crew attached, every dispatch reuses the bands built when
	// the crew attached: the hand-offs allocate nothing either.
	t.Run("crew", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		h.attachCrew()
		defer h.detachCrew()
		if h.levels[0].crew == nil {
			t.Fatal("no crew attached at GOMAXPROCS 4")
		}
		if allocs := testing.AllocsPerRun(10, func() {
			h.cycle(1.0, false)
			delta += maxAbsDiff(w.sv.t, h.tPrev)
		}); allocs != 0 {
			t.Fatalf("V-cycle and delta with a crew allocate %v objects per run, want 0", allocs)
		}
	})
}

// TestMultigridTransient is the transient correctness contract on a
// small logic stack at default options: every implicit step converges
// (its peak matches an integration allowed 60 cycles per step) and
// balances energy — stored-energy change plus outflow equals injected
// power — within the steady solver's Tolerance. Steps cut off after a
// fixed cycle count fail both.
func TestMultigridTransient(t *testing.T) {
	const dt = 0.25
	s := table5Stack(16)
	w, err := NewWorkspace(s)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The hook runs before each step, while the workspace still holds
	// the previous step's field: record that step's outflow.
	var heatOut []float64
	opt := TransientOptions{Dt: dt, Steps: 12, PowerScale: func(tm, _ float64) float64 {
		if tm > 0 {
			heatOut = append(heatOut, w.sv.heatOut())
		}
		return 1
	}}
	tr, err := w.SolveTransient(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	heatOut = append(heatOut, tr.Final.HeatOut())

	opt.PowerScale = nil
	opt.InnerCycles = 60
	ref, err := SolveTransient(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}

	power := s.TotalPower()
	tol := SolveOptions{}.withDefaults().Tolerance
	prevStored := 0.0
	for i, p := range tr.PeakC {
		if d := math.Abs(p - ref.PeakC[i]); d > 0.01 {
			t.Errorf("step %d peak %.4f is %.4f K from the 60-cycle reference %.4f", i, p, d, ref.PeakC[i])
		}
		stored := (tr.StoredJ[i] - prevStored) / dt
		prevStored = tr.StoredJ[i]
		if imb := math.Abs(stored+heatOut[i]-power) / power; imb > tol {
			t.Errorf("step %d: storage %.3f W + outflow %.3f W vs %.3f W injected (imbalance %.2g)",
				i, stored, heatOut[i], power, imb)
		}
	}
}

// TestMultigridTransientRecovers injects a NaN through the PowerScale
// hook and requires the transient recovery rung to restart and finish.
func TestMultigridTransientRecovers(t *testing.T) {
	first := true
	res, err := SolveTransient(context.Background(), oneDStack(40), TransientOptions{
		Dt: 0.5, Steps: 4,
		PowerScale: func(tm, peak float64) float64 {
			if first {
				first = false
				return math.NaN()
			}
			return 1
		},
	})
	if err != nil {
		t.Fatalf("transient fallback did not recover: %v", err)
	}
	if res.Recoveries == 0 {
		t.Fatal("NaN injection should have forced a recovery restart")
	}
	if !isFinite(res.Final.Peak()) {
		t.Fatal("recovered integration returned a non-finite field")
	}
}
