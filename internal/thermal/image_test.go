package thermal

import (
	"bytes"
	"context"
	"image/png"
	"testing"
)

func TestWritePNG(t *testing.T) {
	m := [][]float64{
		{40, 50, 60},
		{45, 70, 55},
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, m, 4); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 12 || b.Dy() != 8 {
		t.Fatalf("image %dx%d, want 12x8", b.Dx(), b.Dy())
	}
}

func TestWritePNGErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePNG(&buf, nil, 1); err == nil {
		t.Error("empty map accepted")
	}
	if err := WritePNG(&buf, [][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Error("ragged map accepted")
	}
	// Uniform map (zero span) must still encode.
	if err := WritePNG(&buf, [][]float64{{5, 5}, {5, 5}}, 0); err != nil {
		t.Errorf("uniform map failed: %v", err)
	}
}

func TestHeatColorEndpoints(t *testing.T) {
	cold := heatColor(0)
	hot := heatColor(1)
	if cold.B != 255 || cold.R != 0 {
		t.Errorf("cold end %v, want blue", cold)
	}
	if hot.R != 255 || hot.G != 0 {
		t.Errorf("hot end %v, want red", hot)
	}
	// Out-of-range inputs clamp.
	if heatColor(-5) != heatColor(0) || heatColor(7) != heatColor(1) {
		t.Error("clamping broken")
	}
}

func TestTransientThermostat(t *testing.T) {
	// Close the loop: a bang-bang governor that halves power above the
	// setpoint must hold the peak near the setpoint, below the
	// unmanaged steady peak.
	const grid = 10
	s := transientStack(60, grid)
	steady, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	setpoint := AmbientC + 0.6*(steady.Peak()-AmbientC)

	tr, err := SolveTransient(context.Background(), s, TransientOptions{
		Dt: 2, Steps: 120,
		PowerScale: func(_ float64, peakC float64) float64 {
			if peakC >= setpoint {
				return 0.3
			}
			return 1.0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The governor must have actually throttled at least once.
	throttled := false
	for _, sc := range tr.Scale {
		if sc < 1 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("governor never engaged")
	}
	// Late-phase peak holds near the setpoint, well under the
	// unmanaged steady value.
	late := tr.PeakC[len(tr.PeakC)-1]
	if late > setpoint+5 {
		t.Errorf("managed peak %.2f blew past setpoint %.2f", late, setpoint)
	}
	if late >= steady.Peak()-1 {
		t.Errorf("governor had no effect: %.2f vs steady %.2f", late, steady.Peak())
	}
}

func TestTransientScaleDefaultsToOne(t *testing.T) {
	s := transientStack(20, 8)
	tr, err := SolveTransient(context.Background(), s, TransientOptions{Dt: 1, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range tr.Scale {
		if sc != 1 {
			t.Fatalf("step %d scale %v, want 1", i, sc)
		}
	}
}
