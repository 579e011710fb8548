package thermal

import (
	"context"
	"math"
	"testing"
)

// transientStack is a small planar assembly for time-stepping tests.
func transientStack(power float64, grid int) *Stack {
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, power)
	return PlanarStack(0.012, 0.012, pm, StackOptions{Nx: grid, Ny: grid})
}

func TestTransientRejectsBadOptions(t *testing.T) {
	s := transientStack(50, 8)
	if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0, Steps: 5}); err == nil {
		t.Error("zero Dt accepted")
	}
	if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0.1, Steps: 0}); err == nil {
		t.Error("zero Steps accepted")
	}
	if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0.1, Steps: 1, Omega: 3}); err == nil {
		t.Error("bad omega accepted")
	}
	if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0.1, Steps: 3, InnerCycles: -1}); err == nil {
		t.Error("negative InnerCycles accepted")
	}
	if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: math.NaN(), Steps: 3}); err == nil {
		t.Error("NaN Dt accepted")
	}
	if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: math.Inf(1), Steps: 3}); err == nil {
		t.Error("+Inf Dt accepted")
	}
	bad := *s
	bad.Layers = nil
	if _, err := SolveTransient(context.Background(), &bad, TransientOptions{Dt: 0.1, Steps: 1}); err == nil {
		t.Error("invalid stack accepted")
	}
}

func TestTransientMonotoneRiseToSteady(t *testing.T) {
	const grid = 12
	s := transientStack(40, grid)
	steady, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0.5, Steps: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.PeakC) != 120 || len(tr.Times) != 120 {
		t.Fatalf("trajectory lengths %d/%d", len(tr.PeakC), len(tr.Times))
	}
	// Monotone heating from ambient.
	prev := s.AmbientC
	for i, p := range tr.PeakC {
		if p < prev-1e-6 {
			t.Fatalf("peak fell at step %d: %.4f -> %.4f", i, prev, p)
		}
		prev = p
	}
	// The trajectory approaches the steady peak from below and gets
	// close after a minute of simulated time.
	last := tr.PeakC[len(tr.PeakC)-1]
	if last > steady.Peak()+0.5 {
		t.Fatalf("transient overshot steady: %.2f vs %.2f", last, steady.Peak())
	}
	if steady.Peak()-last > 0.1*(steady.Peak()-s.AmbientC) {
		t.Fatalf("transient did not approach steady: %.2f vs %.2f", last, steady.Peak())
	}
}

func TestTransientEnergyBookkeeping(t *testing.T) {
	const grid = 10
	const power = 30.0
	s := transientStack(power, grid)
	tr, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0.2, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Early on, nearly all injected energy is still stored (little has
	// escaped to ambient): stored(t) <= P*t, and for the first step
	// it should be a large fraction of it.
	for i, st := range tr.StoredJ {
		injected := power * tr.Times[i]
		if st > injected*1.02 {
			t.Fatalf("step %d stored %.1f J > injected %.1f J", i, st, injected)
		}
	}
	if tr.StoredJ[0] < 0.5*power*tr.Times[0] {
		t.Fatalf("first step stored only %.1f of %.1f J", tr.StoredJ[0], power*tr.Times[0])
	}
	// Stored energy grows monotonically during heating.
	for i := 1; i < len(tr.StoredJ); i++ {
		if tr.StoredJ[i] < tr.StoredJ[i-1]-1e-9 {
			t.Fatalf("stored energy fell at step %d", i)
		}
	}
}

func TestTransientInitialCondition(t *testing.T) {
	const grid = 8
	s := transientStack(0, grid) // unpowered
	tr, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 0.5, Steps: 30, InitialC: 80})
	if err != nil {
		t.Fatal(err)
	}
	// An unpowered stack started hot cools toward ambient.
	if tr.PeakC[0] >= 80 {
		t.Fatalf("no cooling in first step: %.2f", tr.PeakC[0])
	}
	last := tr.PeakC[len(tr.PeakC)-1]
	if last >= tr.PeakC[0] {
		t.Fatalf("not cooling: %.2f -> %.2f", tr.PeakC[0], last)
	}
	if last < AmbientC-1e-6 {
		t.Fatalf("cooled below ambient: %.2f", last)
	}
}

func TestTimeToFraction(t *testing.T) {
	r := &TransientResult{
		Times: []float64{1, 2, 3, 4},
		PeakC: []float64{50, 60, 70, 75},
	}
	if got := r.TimeToFraction(40, 80, 0.632); math.Abs(got-3) > 1e-9 {
		t.Fatalf("TimeToFraction = %v, want 3 (crosses 65.3 at t=3)", got)
	}
	if got := r.TimeToFraction(40, 200, 0.9); got != -1 {
		t.Fatalf("unreached fraction = %v, want -1", got)
	}
}

func TestTransientTimeConstantOrdering(t *testing.T) {
	// A 3D stack (more mass between source and sink paths is not the
	// point here — same cooling, more total capacity) should have a
	// time constant in the same order of magnitude as the planar stack;
	// mostly this guards that TimeToFraction plumbs through sanely.
	const grid = 10
	s := transientStack(40, grid)
	steady, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 1, Steps: 90})
	if err != nil {
		t.Fatal(err)
	}
	tau := tr.TimeToFraction(AmbientC, steady.Peak(), 0.632)
	if tau <= 0 || tau > 60 {
		t.Fatalf("time constant %v s implausible for a desktop assembly", tau)
	}
}

func TestMultiDieStackStructure(t *testing.T) {
	const grid = 16
	mk := func(w float64) DieSpec {
		return DRAMDie(NewPowerMap(grid, grid).FillUniform(w))
	}
	cpu := LogicDie(NewPowerMap(grid, grid).FillUniform(80))

	if _, err := MultiDieStack(0.012, 0.012, []DieSpec{cpu}, StackOptions{Nx: grid, Ny: grid}); err == nil {
		t.Error("single-die stack accepted")
	}

	s, err := MultiDieStack(0.012, 0.012, []DieSpec{cpu, mk(3), mk(3), mk(3)}, StackOptions{Nx: grid, Ny: grid})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPower(); math.Abs(got-89) > 1e-9 {
		t.Fatalf("TotalPower = %v, want 89", got)
	}
	for die := 0; die < 4; die++ {
		if s.ActiveLayerIndex(die) < 0 {
			t.Fatalf("missing active layer for die %d", die)
		}
	}
	// Two-die MultiDieStack matches ThreeDStack's layer count.
	two, err := MultiDieStack(0.012, 0.012, []DieSpec{cpu, mk(3)}, StackOptions{Nx: grid, Ny: grid})
	if err != nil {
		t.Fatal(err)
	}
	three := ThreeDStack(0.012, 0.012, cpu, mk(3), StackOptions{Nx: grid, Ny: grid})
	if len(two.Layers) != len(three.Layers) {
		t.Fatalf("2-die MultiDieStack has %d layers, ThreeDStack %d", len(two.Layers), len(three.Layers))
	}
}

func TestMultiDieDeeperRunsHotter(t *testing.T) {
	const grid = 20
	cpu := LogicDie(NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 70))
	mem := func() DieSpec { return DRAMDie(NewPowerMap(grid, grid).FillUniform(5)) }

	peak := func(n int) float64 {
		dies := []DieSpec{cpu}
		for i := 1; i < n; i++ {
			dies = append(dies, mem())
		}
		s, err := MultiDieStack(0.012, 0.012, dies, StackOptions{Nx: grid, Ny: grid})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Solve(context.Background(), s, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return f.Peak()
	}
	p2, p3, p4 := peak(2), peak(3), peak(4)
	if !(p2 < p3 && p3 < p4) {
		t.Fatalf("peaks not increasing with stack height: %.2f / %.2f / %.2f", p2, p3, p4)
	}
}
