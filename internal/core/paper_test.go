package core

import (
	"context"
	"math"
	"testing"

	"diestack/internal/workload"
)

// anchorTests names the test that measures each experiment's anchor
// rows and pins them through pinAnchors.
var anchorTests = map[string]string{
	"E1":  "TestFigure3Sensitivity",
	"E4":  "TestHeadlineClaims",
	"E5":  "TestPaperAnchors",
	"E6":  "TestRunFigure8Ordering",
	"E7":  "TestRunFigure8Ordering",
	"E8":  "TestTable4Totals",
	"E9":  "TestFigure11Shape",
	"E10": "TestTable5Rows",
	"E11": "TestHeadlineClaims",
}

// deviations names, for each anchor row whose band leaves out the
// paper's own value, the documented deviation the band pins instead.
var deviations = map[string]string{
	"E9/3D Worstcase rise over 3D rise": "EXPERIMENTS.md E9: the worst case rises +37.2 °C over the 2D baseline against the paper's +26.2, so the band holds the reproduction's ratio, not the paper's 1.88",
}

// pinAnchors holds every anchor row that anchorTests assigns to the
// running test to its band, one subtest per row named E<n>/quantity.
// m holds the measurements, keyed the same way; a row with no
// measurement fails. Select an experiment's rows across the tests with
// go test -run '/E7/'.
func pinAnchors(t *testing.T, m map[string]float64) {
	t.Helper()
	n := 0
	for _, a := range anchors {
		if anchorTests[a.E] != t.Name() {
			continue
		}
		n++
		name := a.E + "/" + a.Quantity
		t.Run(name, func(t *testing.T) {
			v, ok := m[name]
			if !ok {
				t.Fatal("no measurement for this row")
			}
			if !(a.Lo < v && v < a.Hi) {
				t.Fatalf("measured %.4g, outside (%.8g, %.8g); paper %.4g", v, a.Lo, a.Hi, a.Paper)
			}
			t.Logf("measured %.4g in (%.8g, %.8g); paper %.4g", v, a.Lo, a.Hi, a.Paper)
		})
	}
	if n == 0 {
		t.Fatalf("%s pins no anchor rows", t.Name())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantRows(t *testing.T, name string, n, want int) {
	t.Helper()
	if n != want {
		t.Fatalf("%s: %d rows, want %d", name, n, want)
	}
}

// TestPaperAnchors checks that every row of the anchor table has a
// test that pins it and a band that holds the paper's value, or else
// names its deviation, and pins Figure 6's (E5) rows.
func TestPaperAnchors(t *testing.T) {
	named := 0
	for _, a := range anchors {
		name := a.E + "/" + a.Quantity
		if anchorTests[a.E] == "" {
			t.Errorf("anchor %s: no test pins %s", name, a.E)
		}
		holdsPaper := math.IsNaN(a.Paper) || (a.Lo < a.Paper && a.Paper < a.Hi)
		_, deviates := deviations[name]
		switch {
		case deviates:
			named++
			if holdsPaper {
				t.Errorf("anchor %s: band (%g, %g) holds the paper's %g, yet names a deviation", name, a.Lo, a.Hi, a.Paper)
			}
		case !holdsPaper:
			t.Errorf("anchor %s: band (%g, %g) leaves out the paper's %g and names no deviation", name, a.Lo, a.Hi, a.Paper)
		}
	}
	if named != len(deviations) {
		t.Errorf("%d deviations name no anchor row", len(deviations)-named)
	}
	pd, tm, err := Figure6Maps(context.Background(), RunSpec{Grid: testGrid})
	must(t, err)
	m := map[string]float64{}
	m["E5/coolest"], m["E5/peak"] = Figure6Result{PowerDensity: pd, Temperature: tm}.TemperatureRange()
	pinAnchors(t, m)
}

// TestFigure3Sensitivity pins E1: sweeping a layer from 60 to 3 W/mK
// raises the peak, the Cu metal layers more than the bond.
func TestFigure3Sensitivity(t *testing.T) {
	var rise [2]float64
	for i, layer := range []SweepLayer{SweepCuMetal, SweepBond} {
		pts, err := RunFigure3(context.Background(), RunSpec{Grid: testGrid}, layer, []float64{60, 12, 3})
		must(t, err)
		wantRows(t, layer.String(), len(pts), 3)
		rise[i] = pts[2].PeakC - pts[0].PeakC
	}
	pinAnchors(t, map[string]float64{
		"E1/Cu metal rise":             rise[0],
		"E1/bond rise":                 rise[1],
		"E1/Cu metal rise - bond rise": rise[0] - rise[1],
	})
}

// TestHeadlineClaims pins E4 and E11, the abstract's memory claims for
// the 32 MB stack, at reference workload scale.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-scale Figure 5 sweep is slow")
	}
	res, err := RunFigure5(context.Background(), RunSpec{Seed: 1, Scale: 1.0})
	must(t, err)
	h := res.Headline()
	// Every benchmark whose working set exceeds the 4 MB baseline
	// (row[0]) gains at least 5% CPMA from the 32 MB stack (row[2]).
	for i, row := range res.Rows {
		b, _ := workload.ByName(res.Benchmarks[i])
		if red := (1 - row[2].CPMA/row[0].CPMA) * 100; !b.FitsIn4MB && red < 5 {
			t.Errorf("%s should respond to capacity, reduction %.1f%%", b.Name, red)
		}
	}
	pinAnchors(t, map[string]float64{
		"E4/avg CPMA reduction":  h.AvgCPMAReductionPct,
		"E4/peak CPMA reduction": h.MaxCPMAReductionPct,
		"E11/traffic reduction":  h.TrafficReductionFactor,
		"E11/bus power saving":   h.BusPowerSavingW,
	})
}

// TestRunFigure8Ordering pins E6 and E7: Figure 7's powers and Figure
// 8's peaks and their ordering.
func TestRunFigure8Ordering(t *testing.T) {
	rows, err := RunFigure8(context.Background(), RunSpec{Grid: testGrid})
	must(t, err)
	wantRows(t, "Figure 8", len(rows), 4)
	m := map[string]float64{}
	for _, r := range rows {
		m["E6/power "+r.Option.String()] = r.TotalPowerW
		m["E7/peak "+r.Option.String()] = r.PeakC
	}
	m["E7/peak 3D 12MB - peak 3D 64MB"] = m["E7/peak 3D 12MB"] - m["E7/peak 3D 64MB"]
	m["E7/peak 3D 64MB - peak 3D 32MB"] = m["E7/peak 3D 64MB"] - m["E7/peak 3D 32MB"]
	m["E7/peak 3D 32MB - peak 2D 4MB"] = m["E7/peak 3D 32MB"] - m["E7/peak 2D 4MB"]
	pinAnchors(t, m)
}

// TestTable4Totals pins E8: Table 4's totals at 30,000 instructions per
// profile and the wire power the fold saves.
func TestTable4Totals(t *testing.T) {
	ctx := context.Background()
	t4, err := RunTable4(ctx, RunSpec{Seed: 1}, 30_000)
	must(t, err)
	wantRows(t, "Table 4", len(t4.Rows), 10)
	saving, err := RunPowerDerivation(ctx)
	must(t, err)
	pinAnchors(t, map[string]float64{
		"E8/stages eliminated": t4.StagesEliminatedPct,
		"E8/total perf gain":   t4.TotalGainPct,
		"E8/wire power saving": saving.SavingPctOfTotal,
	})
}

// TestFigure11Shape pins E9: Figure 11's peaks, densities and powers,
// and the worst case's rise against the tuned fold's.
func TestFigure11Shape(t *testing.T) {
	rows, err := RunFigure11(context.Background(), RunSpec{Grid: testGrid})
	must(t, err)
	wantRows(t, "Figure 11", len(rows), 3)
	m := map[string]float64{}
	for _, r := range rows {
		m["E9/peak "+r.Option.String()] = r.PeakC
		m["E9/density "+r.Option.String()] = r.DensityRatio
		m["E9/power "+r.Option.String()] = r.TotalPowerW
	}
	rise3D := m["E9/peak 3D"] - m["E9/peak 2D Baseline"]
	riseWorst := m["E9/peak 3D Worstcase"] - m["E9/peak 2D Baseline"]
	m["E9/peak 3D - peak 2D Baseline"] = rise3D
	m["E9/peak 3D Worstcase - peak 3D"] = riseWorst - rise3D
	m["E9/3D Worstcase rise over 3D rise"] = riseWorst / rise3D
	pinAnchors(t, m)
}

// TestTable5Rows pins E10: Table 5's power and performance per scaling
// point.
func TestTable5Rows(t *testing.T) {
	rows, err := RunTable5(context.Background(), RunSpec{Grid: testGrid})
	must(t, err)
	wantRows(t, "Table 5", len(rows), 5)
	m := map[string]float64{}
	for _, p := range rows {
		m["E10/"+p.Name+" power"] = p.PowerW
		m["E10/"+p.Name+" perf"] = p.PerfPct
	}
	pinAnchors(t, m)
}
