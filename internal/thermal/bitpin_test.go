package thermal

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// bitDigest returns the SHA-256 of the IEEE-754 bit patterns of every
// value, slice after slice, so a single flipped last bit changes it.
func bitDigest(vals ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// logicStack3D is the Figure 11 shape: a logic die with a hot core
// region next to the sink, face to face with a lighter SRAM die, under
// the performance heat sink.
func logicStack3D(grid int) *Stack {
	top := NewPowerMap(grid, grid).FillUniform(20).
		FillRect(grid/3, grid/3, grid/2, 2*grid/3, 45)
	bot := NewPowerMap(grid, grid).FillUniform(6).
		FillRect(grid/2, grid/4, 3*grid/4, grid/2, 8)
	opt := StackOptions{Nx: grid, Ny: grid, TopH: PerformanceTopH}
	return ThreeDStack(0.011, 0.011, LogicDie(top), SRAMDie(bot), opt)
}

// TestSolverBitPins pins the exact bits the solver produces on three
// paths: a steady multigrid solve, a throttled transient, and a steady
// solve that recovers on the fine-only rung at an odd lateral grid.
// Any change to the order or operands of a floating-point operation in
// the smoother, the transfers, the energy bookkeeping or the Field
// copy shows up here; a change that only reorganizes memory or
// schedules independent work does not.
func TestSolverBitPins(t *testing.T) {
	ctx := context.Background()

	t.Run("steady-3d-logic-64", func(t *testing.T) {
		f, err := Solve(ctx, logicStack3D(64), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const want = "453d3c76a85fabea9e0d7741076833fc99751c0cefb17e8b6fcb98088078a212"
		if f.Sweeps() != 8 {
			t.Errorf("steady solve took %d V-cycles, want 8", f.Sweeps())
		}
		if got := bitDigest(f.t); got != want {
			t.Errorf("steady field digest %s, want %s (peak %.17g, %d cycles)", got, want, f.Peak(), f.Sweeps())
		}
	})

	t.Run("transient-throttled-24", func(t *testing.T) {
		throttled := 0
		hook := func(_ float64, peakC float64) float64 {
			if peakC > 60 {
				throttled++
				return 0.5
			}
			return 1
		}
		tr, err := SolveTransient(ctx, logicStack3D(24), TransientOptions{Dt: 0.25, Steps: 20, PowerScale: hook})
		if err != nil {
			t.Fatal(err)
		}
		// Both regimes, throttled and not, must occur inside the pin.
		if throttled != 13 {
			t.Errorf("hook throttled %d of 20 steps, want 13", throttled)
		}
		const want = "b86c6f2252c8192113247b8e350eb30547c455202d9c70d6b09947534457b585"
		if got := bitDigest(tr.PeakC, tr.StoredJ, tr.Final.t); got != want {
			t.Errorf("transient digest %s, want %s (final peak %.17g, %d throttled)", got, want, tr.PeakC[len(tr.PeakC)-1], throttled)
		}
	})

	t.Run("recovery-odd-13x17", func(t *testing.T) {
		pm := NewPowerMap(13, 17).FillRect(3, 4, 9, 12, 70)
		s := PlanarStack(0.013, 0.011, pm, StackOptions{Nx: 13, Ny: 17})
		f, err := Solve(ctx, s, SolveOptions{Omega: 2.5})
		if err != nil {
			t.Fatal(err)
		}
		if f.Recoveries() == 0 {
			t.Fatal("omega 2.5 should have needed the recovery rung")
		}
		const want = "281a2a3b1186bb9ba1ac9295a1eed48840d08c83ec321298b07465265ab7efad"
		if f.Sweeps() != 66 || f.Recoveries() != 1 {
			t.Errorf("recovery took %d cycles and %d recoveries, want 66 and 1", f.Sweeps(), f.Recoveries())
		}
		if got := bitDigest(f.t); got != want {
			t.Errorf("recovered field digest %s, want %s (peak %.17g, %d cycles, %d recoveries)", got, want, f.Peak(), f.Sweeps(), f.Recoveries())
		}
	})
}
