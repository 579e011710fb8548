package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// atProcs runs fn at GOMAXPROCS n and restores the previous setting.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// fourDieStack is a four-die logic-over-memory stack: the tallest
// column the solver sees in the catalog's multi-die sweep.
func fourDieStack(grid int) *Stack {
	dies := []DieSpec{LogicDie(NewPowerMap(grid, grid).FillRect(grid/4, grid/4, 3*grid/4, 3*grid/4, 50))}
	for i := 0; i < 3; i++ {
		dies = append(dies, DRAMDie(NewPowerMap(grid, grid).FillUniform(4)))
	}
	s, err := MultiDieStack(0.011, 0.011, dies, StackOptions{Nx: grid, Ny: grid})
	if err != nil {
		panic(err)
	}
	return s
}

// TestSolveScheduleIndependent holds the crew to its bit-identity
// claim: every steady field, cycle count, transient trajectory and
// recovery comes out the same, bit for bit, at GOMAXPROCS 1 (no crew,
// the serial kernels) and at GOMAXPROCS 4 (three helpers). Grid 33 has
// odd rows at every level, so the last restriction band ends on a
// clipped coarse row that covers one fine row.
func TestSolveScheduleIndependent(t *testing.T) {
	ctx := context.Background()
	stacks := map[string]func(int) *Stack{
		"planar":   benchStack,
		"3d":       logicStack3D,
		"four-die": fourDieStack,
	}
	for _, kind := range []string{"planar", "3d", "four-die"} {
		for _, grid := range []int{16, 33, 64} {
			t.Run(fmt.Sprintf("steady-%s-%d", kind, grid), func(t *testing.T) {
				s := stacks[kind](grid)
				var serial, crewed *Field
				var err error
				atProcs(1, func() { serial, err = Solve(ctx, s, SolveOptions{}) })
				if err != nil {
					t.Fatal(err)
				}
				atProcs(4, func() { crewed, err = Solve(ctx, s, SolveOptions{}) })
				if err != nil {
					t.Fatal(err)
				}
				if serial.Sweeps() != crewed.Sweeps() {
					t.Errorf("%d V-cycles at GOMAXPROCS 1, %d at 4", serial.Sweeps(), crewed.Sweeps())
				}
				if i, ok := sameBits(serial.t, crewed.t); !ok {
					t.Errorf("fields differ at cell %d", i)
				}
			})
		}
	}

	transient := func(s *Stack, opt TransientOptions) *TransientResult {
		tr, err := SolveTransient(ctx, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	throttle := func(_ float64, peakC float64) float64 {
		if peakC > 60 {
			return 0.5
		}
		return 1
	}
	nanOnce := func() func(float64, float64) float64 {
		first := true
		return func(float64, float64) float64 {
			if first {
				first = false
				return math.NaN()
			}
			return 1
		}
	}
	for _, tc := range []struct {
		name string
		s    *Stack
		opt  func() TransientOptions
	}{
		{"transient-3d-33", logicStack3D(33), func() TransientOptions {
			return TransientOptions{Dt: 0.25, Steps: 12, PowerScale: throttle}
		}},
		{"transient-recovery-3d-33", logicStack3D(33), func() TransientOptions {
			return TransientOptions{Dt: 0.25, Steps: 4, PowerScale: nanOnce()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var serial, crewed *TransientResult
			atProcs(1, func() { serial = transient(tc.s, tc.opt()) })
			atProcs(4, func() { crewed = transient(tc.s, tc.opt()) })
			if serial.Recoveries != crewed.Recoveries || serial.Dt != crewed.Dt {
				t.Errorf("recoveries/dt %d/%g at GOMAXPROCS 1, %d/%g at 4",
					serial.Recoveries, serial.Dt, crewed.Recoveries, crewed.Dt)
			}
			for _, v := range []struct {
				name string
				a, b []float64
			}{
				{"peak", serial.PeakC, crewed.PeakC},
				{"stored energy", serial.StoredJ, crewed.StoredJ},
				{"scale", serial.Scale, crewed.Scale},
				{"final field", serial.Final.t, crewed.Final.t},
			} {
				if i, ok := sameBits(v.a, v.b); !ok {
					t.Errorf("%s differs at %d", v.name, i)
				}
			}
		})
	}

	t.Run("steady-recovery-33", func(t *testing.T) {
		s := benchStack(33)
		var serial, crewed *Field
		var err error
		atProcs(1, func() { serial, err = Solve(ctx, s, SolveOptions{Omega: 2.5}) })
		if err != nil {
			t.Fatal(err)
		}
		atProcs(4, func() { crewed, err = Solve(ctx, s, SolveOptions{Omega: 2.5}) })
		if err != nil {
			t.Fatal(err)
		}
		if serial.Recoveries() == 0 {
			t.Fatal("omega 2.5 should have needed the recovery rung")
		}
		if serial.Sweeps() != crewed.Sweeps() || serial.Recoveries() != crewed.Recoveries() {
			t.Errorf("%d cycles/%d recoveries at GOMAXPROCS 1, %d/%d at 4",
				serial.Sweeps(), serial.Recoveries(), crewed.Sweeps(), crewed.Recoveries())
		}
		if i, ok := sameBits(serial.t, crewed.t); !ok {
			t.Errorf("recovered fields differ at cell %d", i)
		}
	})
}

// settleGoroutines waits (bounded) for the goroutine count to fall back
// to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want %d after the solve returned", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// n-th call: the solver checks it once per cycle, so the solve is
// cancelled after exactly n-1 cycles, mid-solve, with its crew running.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCrewLifetime checks that a crew lives for one attempt: it is
// running inside a solve at GOMAXPROCS 4, and the goroutine count is
// back at its baseline once a steady solve, a transient, a solve
// cancelled mid-solve, and a transient whose recoveries run out each
// return.
func TestCrewLifetime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// A helper exits just after its WaitGroup Done, so helpers of an
	// earlier test may still be counted here; the count only falls, so
	// each settle below lowers base to what it found.
	base := runtime.NumGoroutine()
	settle := func() {
		t.Helper()
		settleGoroutines(t, base)
		base = runtime.NumGoroutine()
	}
	ctx := context.Background()
	s := benchStack(32) // 4 fine bands: a crew of 3 helpers

	if _, err := Solve(ctx, s, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	settle()

	w, err := NewWorkspace(s)
	if err != nil {
		t.Fatal(err)
	}
	helpers, inside := 0, 0
	_, err = w.SolveTransient(ctx, TransientOptions{Dt: 0.25, Steps: 3, PowerScale: func(float64, float64) float64 {
		if cr := w.mg.levels[0].crew; cr != nil {
			helpers = len(cr.workers) - 1
		}
		inside = max(inside, runtime.NumGoroutine())
		return 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	settle()
	if helpers != 3 || inside-base < 3 {
		t.Errorf("inside the transient: a crew of %d helpers and %d goroutines over the settled count, want 3 and at least 3",
			helpers, inside-base)
	}

	if _, err := Solve(&cancelAfter{Context: ctx, n: 3}, s, SolveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
	settle()

	_, err = SolveTransient(ctx, s, TransientOptions{Dt: 0.25, Steps: 3, PowerScale: func(float64, float64) float64 {
		return math.NaN()
	}})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("always-NaN transient: err = %v, want ErrDiverged", err)
	}
	settle()
}
