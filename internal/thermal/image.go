package thermal

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
)

// heatColor maps a normalized value in [0,1] onto a blue-to-red
// thermal ramp (the classic thermal-camera palette the paper's
// Figure 6 uses).
func heatColor(f float64) color.RGBA {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	// Piecewise ramp: blue -> cyan -> green -> yellow -> red.
	switch {
	case f < 0.25:
		t := f / 0.25
		return color.RGBA{0, uint8(255 * t), 255, 255}
	case f < 0.5:
		t := (f - 0.25) / 0.25
		return color.RGBA{0, 255, uint8(255 * (1 - t)), 255}
	case f < 0.75:
		t := (f - 0.5) / 0.25
		return color.RGBA{uint8(255 * t), 255, 0, 255}
	default:
		t := (f - 0.75) / 0.25
		return color.RGBA{255, uint8(255 * (1 - t)), 0, 255}
	}
}

// WritePNG renders a lateral scalar map (temperature in °C, power
// density, …) as a PNG heat map, scaled up by the given integer zoom
// factor. Rows render top-down with y increasing upward, matching the
// floorplan coordinate convention.
func WritePNG(w io.Writer, m [][]float64, zoom int) error {
	if len(m) == 0 || len(m[0]) == 0 {
		return fmt.Errorf("thermal: empty map")
	}
	if zoom < 1 {
		zoom = 1
	}
	ny, nx := len(m), len(m[0])
	lo, hi := m[0][0], m[0][0]
	for _, row := range m {
		if len(row) != nx {
			return fmt.Errorf("thermal: ragged map")
		}
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	img := image.NewRGBA(image.Rect(0, 0, nx*zoom, ny*zoom))
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			c := heatColor((m[y][x] - lo) / span)
			for dy := 0; dy < zoom; dy++ {
				for dx := 0; dx < zoom; dx++ {
					// Flip vertically: row 0 of the map is the bottom.
					img.SetRGBA(x*zoom+dx, (ny-1-y)*zoom+dy, c)
				}
			}
		}
	}
	return png.Encode(w, img)
}
