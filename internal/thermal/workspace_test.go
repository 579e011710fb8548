package thermal

import (
	"context"
	"math"
	"testing"
)

// fieldMaxDiff returns the largest absolute per-cell difference.
func fieldMaxDiff(a, b *Field) float64 {
	if len(a.t) != len(b.t) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a.t {
		if d := math.Abs(a.t[i] - b.t[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// tallTestStack is a four-die MultiDieStack: more z cells than a single
// die provides.
func tallTestStack(t *testing.T, grid int) *Stack {
	t.Helper()
	dies := make([]DieSpec, 4)
	for i := range dies {
		dies[i] = LogicDie(NewPowerMap(grid, grid).FillUniform(20))
	}
	s, err := MultiDieStack(0.013, 0.011, dies, StackOptions{Nx: grid, Ny: grid})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// inParallel runs n copies of fn concurrently and waits for them all.
func inParallel(n int, fn func(i int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			fn(i)
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// TestParallelMatchesSerial: campaigns (-jobs N) and stackd solve
// stacks concurrently, each on its own workspace. The solver keeps no
// shared state, so every concurrent solve is bit-identical to the
// serial one, with the same cycle count — under -race this also proves
// nothing is shared.
func TestParallelMatchesSerial(t *testing.T) {
	for name, s := range map[string]*Stack{"planar": benchStack(24), "tall": tallTestStack(t, 16)} {
		serial, err := Solve(context.Background(), s, SolveOptions{})
		if err != nil {
			t.Fatalf("%s: serial solve: %v", name, err)
		}
		fields := make([]*Field, 4)
		errs := make([]error, 4)
		inParallel(4, func(i int) { fields[i], errs[i] = Solve(context.Background(), s, SolveOptions{}) })
		for i, f := range fields {
			if errs[i] != nil {
				t.Fatalf("%s: concurrent solve %d: %v", name, i, errs[i])
			}
			if d := fieldMaxDiff(serial, f); d != 0 {
				t.Errorf("%s: concurrent solve %d differs from serial by %g", name, i, d)
			}
			if f.Sweeps() != serial.Sweeps() {
				t.Errorf("%s: concurrent solve %d took %d cycles, serial %d", name, i, f.Sweeps(), serial.Sweeps())
			}
		}
	}
}

// TestParallelDeterminism: concurrent solves of one stack shape
// through a shared WorkspaceCache — the stackd path, where each solve
// takes an idle pooled workspace or builds its own and none waits on
// another — come out bit-identical to a fresh serial solve.
func TestParallelDeterminism(t *testing.T) {
	s := benchStack(24)
	fresh, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewWorkspaceCache()
	fields := make([]*Field, 8)
	errs := make([]error, 8)
	inParallel(8, func(i int) {
		fields[i], errs[i] = c.Solve(context.Background(), benchStack(24), SolveOptions{})
	})
	for i, f := range fields {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		for j := range f.t {
			if math.Float64bits(f.t[j]) != math.Float64bits(fresh.t[j]) {
				t.Fatalf("solve %d: cell %d not bit-identical to the fresh solve", i, j)
			}
		}
	}
}

// TestTransientParallelMatchesSerial extends the guarantee to
// concurrent implicit-Euler integrations (parallel DTM jobs): per-step
// peaks and the final field are bit-identical to the serial run.
func TestTransientParallelMatchesSerial(t *testing.T) {
	s := benchStack(16)
	opt := TransientOptions{Dt: 0.5, Steps: 8}
	serial, err := SolveTransient(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*TransientResult, 3)
	errs := make([]error, 3)
	inParallel(3, func(i int) { runs[i], errs[i] = SolveTransient(context.Background(), s, opt) })
	for i, tr := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if d := fieldMaxDiff(serial.Final, tr.Final); d != 0 {
			t.Errorf("run %d: final field differs from serial by %g", i, d)
		}
		for k := range serial.PeakC {
			if serial.PeakC[k] != tr.PeakC[k] {
				t.Errorf("run %d: step %d peak %v, serial %v", i, k, tr.PeakC[k], serial.PeakC[k])
			}
		}
	}
}

// TestWorkspaceReuse: repeated solves on one workspace match fresh
// solves, including after the stack's power maps are mutated in place
// (sources are re-rasterized per solve) and after a transient has left
// C/dt on the workspace's operator diagonals.
func TestWorkspaceReuse(t *testing.T) {
	grid := 16
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 92)
	s := PlanarStack(0.013, 0.011, pm, StackOptions{Nx: grid, Ny: grid})

	w, err := NewWorkspace(s)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fresh, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated solves must each match the fresh single-use solve.
	for i := 0; i < 3; i++ {
		f, err := w.Solve(context.Background(), SolveOptions{})
		if err != nil {
			t.Fatalf("workspace solve %d: %v", i, err)
		}
		if d := fieldMaxDiff(fresh, f); d > 1e-9 {
			t.Errorf("workspace solve %d differs from fresh solve by %g", i, d)
		}
	}

	// Returned fields own their data: the first result must survive
	// later solves on the same workspace.
	first, err := w.Solve(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peakBefore := first.Peak()

	// Mutating the power map in place is picked up by the next solve.
	pm.Scale(1.5)
	hot, err := w.Solve(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	freshHot, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := fieldMaxDiff(freshHot, hot); d > 1e-9 {
		t.Errorf("workspace solve after power mutation differs from fresh solve by %g", d)
	}
	if hot.Peak() <= peakBefore {
		t.Errorf("peak did not rise after scaling power: %g -> %g", peakBefore, hot.Peak())
	}
	if first.Peak() != peakBefore {
		t.Errorf("earlier field mutated by workspace reuse: %g -> %g", peakBefore, first.Peak())
	}

	// A transient on the same workspace matches a fresh transient.
	topt := TransientOptions{Dt: 0.5, Steps: 4}
	trW, err := w.SolveTransient(context.Background(), topt)
	if err != nil {
		t.Fatal(err)
	}
	trFresh, err := SolveTransient(context.Background(), s, topt)
	if err != nil {
		t.Fatal(err)
	}
	if d := fieldMaxDiff(trFresh.Final, trW.Final); d > 1e-9 {
		t.Errorf("workspace transient differs from fresh transient by %g", d)
	}

	// A steady solve after the transient is back on the steady operator.
	after, err := w.Solve(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := fieldMaxDiff(freshHot, after); d > 1e-9 {
		t.Errorf("steady solve after a transient differs from fresh solve by %g", d)
	}
}
