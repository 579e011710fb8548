package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperLaws(t *testing.T) {
	l := PaperLaws()
	if l.PerfPerFreqPct != 0.82 || l.FreqPerVccPct != 1.0 {
		t.Fatalf("laws = %+v", l)
	}
}

func TestSameFreqPoint(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	p, err := l.At(d, "same freq", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Table 5 "Same Freq.": 125 W (85%), perf 115%.
	if math.Abs(p.PowerW-124.95) > 0.01 {
		t.Errorf("PowerW = %v, want 124.95", p.PowerW)
	}
	if math.Abs(p.PerfPct-115) > 1e-9 {
		t.Errorf("PerfPct = %v, want 115", p.PerfPct)
	}
}

func TestSamePowerPoint(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	f := l.SamePowerFreq(d)
	// 1/0.85 = 1.176 — Table 5 rounds to 1.18.
	if math.Abs(f-1.176) > 0.002 {
		t.Fatalf("SamePowerFreq = %v", f)
	}
	p, err := l.At(d, "same pwr", 1, f)
	if err != nil {
		t.Fatal(err)
	}
	// At constant V the power returns to ~147 W... except At() uses
	// V²f with V=1 so power = 147 exactly.
	if math.Abs(p.PowerW-147) > 0.01 {
		t.Errorf("PowerW = %v, want 147", p.PowerW)
	}
	// Perf = 115 + 0.82 x 17.6 = 129.5 (Table 5: 129%).
	if p.PerfPct < 128 || p.PerfPct > 131 {
		t.Errorf("PerfPct = %v, want ~129", p.PerfPct)
	}
}

func TestSamePerfPoint(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	f := l.FreqForPerf(d, 100)
	// Table 5: freq 0.82 (needs -15% perf at 0.82%/1%).
	if math.Abs(f-0.817) > 0.002 {
		t.Fatalf("FreqForPerf = %v, want ~0.817", f)
	}
	v := l.VccForFreq(f)
	p, err := l.At(d, "same perf", v, f)
	if err != nil {
		t.Fatal(err)
	}
	// Power = 125 x 0.817³ = 68.1 W (Table 5: 68.2 W, 46%).
	if math.Abs(p.PowerW-68.1) > 1.0 {
		t.Errorf("PowerW = %v, want ~68.2", p.PowerW)
	}
	if math.Abs(p.PerfPct-100) > 1e-9 {
		t.Errorf("PerfPct = %v, want 100", p.PerfPct)
	}
}

func TestAtRejectsBadPoints(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	if _, err := l.At(d, "x", 0, 1); err == nil {
		t.Error("zero vcc accepted")
	}
	if _, err := l.At(d, "x", 1, -1); err == nil {
		t.Error("negative freq accepted")
	}
}

// Synthetic thermal responses: the 3D stack runs hotter per watt than
// the planar baseline (folded footprint, 1.3x density), which is the
// entire reason the Same Temp row requires a voltage cut.
func planarTemp(powerW float64) float64 { return 40 + 0.40*powerW }
func threeDTemp(powerW float64) float64 { return 40 + 0.60*powerW }

func TestSameTempFreq(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	target := planarTemp(d.BasePowerW) // baseline temperature 98.8
	f, err := l.SameTempFreq(d, threeDTemp, target)
	if err != nil {
		t.Fatal(err)
	}
	// 3D power at equal temperature: (98.8-40)/0.6 = 98 W;
	// 125 f³ = 98 -> f = 0.922 (Table 5: 0.92).
	want := math.Cbrt(98.0 / 124.95)
	if math.Abs(f-want) > 1e-3 {
		t.Fatalf("SameTempFreq = %v, want %v", f, want)
	}
}

func TestSameTempUnbracketed(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	if _, err := l.SameTempFreq(d, threeDTemp, 1000); err == nil {
		t.Fatal("unreachable temperature accepted")
	}
}

func TestTable5Rows(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	baselineTemp := planarTemp(147)
	rows, err := l.Table5(d, threeDTemp, baselineTemp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Orderings from Table 5: perf SamePwr > SameFreq > SameTemp >
	// SamePerf = Baseline; power SamePwr = Baseline > SameFreq >
	// SameTemp > SamePerf.
	byName := map[string]Point{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !(byName["Same Pwr"].PerfPct > byName["Same Freq."].PerfPct &&
		byName["Same Freq."].PerfPct > byName["Same Temp"].PerfPct &&
		byName["Same Temp"].PerfPct > byName["Same Perf."].PerfPct) {
		t.Errorf("performance ordering wrong: %+v", rows)
	}
	if !(byName["Same Freq."].PowerW > byName["Same Temp"].PowerW &&
		byName["Same Temp"].PowerW > byName["Same Perf."].PowerW) {
		t.Errorf("power ordering wrong: %+v", rows)
	}
	// Same Temp row: the paper reports +8% perf at -34% power with the
	// synthetic-linear thermal stand-in we should land in the same
	// region (perf above 100, power well below baseline).
	st := byName["Same Temp"]
	if st.PerfPct < 103 || st.PerfPct > 115 {
		t.Errorf("Same Temp perf = %v, want ~108", st.PerfPct)
	}
	if st.PowerPct > 90 {
		t.Errorf("Same Temp power%% = %v, want well below 100", st.PowerPct)
	}
}

func TestRowNames(t *testing.T) {
	names := []string{"Baseline", "Same Pwr", "Same Freq.", "Same Temp", "Same Perf."}
	for i, want := range names {
		if got := Table5Row(i).String(); got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
	if !strings.Contains(Table5Row(9).String(), "9") {
		t.Error("unknown row should include value")
	}
}

// Property: performance is monotone in frequency and power is monotone
// in both voltage and frequency.
func TestMonotonicityQuick(t *testing.T) {
	l := PaperLaws()
	d := Pentium4ThreeDDesign()
	f := func(a, b uint8) bool {
		f1 := 0.5 + float64(a)/255
		f2 := f1 + float64(b)/255 + 0.01
		p1, err1 := l.At(d, "a", l.VccForFreq(f1), f1)
		p2, err2 := l.At(d, "b", l.VccForFreq(f2), f2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p2.PerfPct > p1.PerfPct && p2.PowerW > p1.PowerW
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
