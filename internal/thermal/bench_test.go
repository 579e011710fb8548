package thermal

import (
	"context"
	"testing"
)

func benchStack(grid int) *Stack {
	pm := NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 92)
	return PlanarStack(0.013, 0.011, pm, StackOptions{Nx: grid, Ny: grid})
}

// The steady benchmarks keep their Multigrid names so they line up with
// the same rows of earlier baselines (BENCH_005), from before multigrid
// became the only schedule.

// BenchmarkSolve32Multigrid solves the 32-class stack, discretization
// and hierarchy build included (cold-solve cost).
func BenchmarkSolve32Multigrid(b *testing.B) {
	s := benchStack(32)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), s, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve64Multigrid is the headline solver benchmark: a cold
// 64x64 solve at the default tolerance, single core.
func BenchmarkSolve64Multigrid(b *testing.B) {
	s := benchStack(64)
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), s, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceResolve64Multigrid measures a re-solve on a kept
// Workspace: the hierarchy is already allocated, so this is the pure
// allocation-free V-cycle iteration cost — the shape of every retry,
// transient step, and DTM sample.
func BenchmarkWorkspaceResolve64Multigrid(b *testing.B) {
	s := benchStack(64)
	w, err := NewWorkspace(s)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(context.Background(), SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStep(b *testing.B) {
	s := benchStack(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 1, Steps: 10}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10, "steps/op")
}

// vcycleBench prepares a workspace on the 3D logic stack at grid 64
// for kernel benchmarks: the capacity term of a 0.25 s implicit step
// is on, as in every DTM step, and the sources are loaded.
func vcycleBench(b *testing.B) *Workspace {
	w, err := NewWorkspace(logicStack3D(64))
	if err != nil {
		b.Fatal(err)
	}
	w.sv.reset(w.sv.s.AmbientC)
	w.mg.beginSolve(0.25)
	w.sv.loadRHS(1, 0.25)
	return w
}

// BenchmarkVCycle64Stack3D is one V-cycle on the 3D logic stack, the
// unit of work of every DTM step and steady solve.
func BenchmarkVCycle64Stack3D(b *testing.B) {
	w := vcycleBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.mg.vcycle(1)
	}
}

// BenchmarkSmoothSweep64 is one red-black z-line sweep of the fine
// level of the 3D logic stack: the smoother kernel alone.
func BenchmarkSmoothSweep64(b *testing.B) {
	w := vcycleBench(b)
	fine := w.mg.levels[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fine.smoothSweep(1)
	}
}
