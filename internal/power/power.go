// Package power implements the paper's voltage/frequency scaling
// laws, used to trade the Logic+Logic 3D floorplan's simultaneous
// +15% performance / -15% power for lower temperature or lower power
// (Table 5).
package power

import (
	"fmt"
	"math"
)

// Laws captures the Table 5 conversion equations.
type Laws struct {
	// PerfPerFreqPct is the performance gained per percent of
	// frequency: the paper measures 0.82%/1% (memory latency keeps the
	// relationship below 1:1).
	PerfPerFreqPct float64
	// FreqPerVccPct is the frequency change per percent of supply
	// voltage: 1%/1% over the relevant range.
	FreqPerVccPct float64
}

// PaperLaws returns the conversion equations printed under Table 5.
func PaperLaws() Laws {
	return Laws{PerfPerFreqPct: 0.82, FreqPerVccPct: 1.0}
}

// Design describes a processor implementation relative to a planar
// baseline at Vcc=1, Freq=1.
type Design struct {
	// BasePowerW is the planar design's power (147 W in the paper).
	BasePowerW float64
	// PowerFactor is the implementation's power at Vcc=1/Freq=1
	// relative to the baseline (0.85 for the 3D floorplan).
	PowerFactor float64
	// PerfGainPct is the implementation's performance gain at equal
	// frequency (15% for the 3D floorplan: eliminated pipe stages).
	PerfGainPct float64
}

// Pentium4ThreeDDesign returns the paper's Logic+Logic data point:
// 147 W baseline, 15% power saving, 15% performance gain.
func Pentium4ThreeDDesign() Design {
	return Design{BasePowerW: 147, PowerFactor: 0.85, PerfGainPct: 15}
}

// Point is one operating point of a design.
type Point struct {
	Name string
	// Vcc and Freq are relative to the baseline operating point.
	Vcc, Freq float64
	// PowerW is the total power at this point.
	PowerW float64
	// PowerPct is PowerW relative to the baseline design's power.
	PowerPct float64
	// PerfPct is performance relative to the baseline design (=100).
	PerfPct float64
}

// At computes the design's operating point at the given relative
// voltage and frequency. Dynamic power scales as V²f; performance
// follows the paper's additive percent law (perf% = 100 + gain +
// 0.82 x Δfreq%). Frequency must track voltage per the 1:1 law when
// the caller scales voltage; At does not enforce the coupling so that
// same-voltage frequency steps (the paper's "Same Pwr" row) remain
// expressible.
func (l Laws) At(d Design, name string, vcc, freq float64) (Point, error) {
	if vcc <= 0 || freq <= 0 {
		return Point{}, fmt.Errorf("power: non-positive operating point v=%g f=%g", vcc, freq)
	}
	pw := d.BasePowerW * d.PowerFactor * vcc * vcc * freq
	perf := 100 + d.PerfGainPct + l.PerfPerFreqPct*(freq-1)*100
	return Point{
		Name: name,
		Vcc:  vcc, Freq: freq,
		PowerW:   pw,
		PowerPct: pw / d.BasePowerW * 100,
		PerfPct:  perf,
	}, nil
}

// VccForFreq returns the relative voltage required for a relative
// frequency under the linear 1%-per-1% law.
func (l Laws) VccForFreq(freq float64) float64 {
	return 1 + (freq-1)/l.FreqPerVccPct
}

// FreqForPerf solves the performance law for the relative frequency
// that yields the target performance percentage.
func (l Laws) FreqForPerf(d Design, perfPct float64) float64 {
	return 1 + (perfPct-100-d.PerfGainPct)/(l.PerfPerFreqPct*100)
}

// SamePowerFreq returns the frequency step available at constant
// voltage that returns the design to the baseline power (P ∝ f at
// fixed V).
func (l Laws) SamePowerFreq(d Design) float64 {
	return 1 / d.PowerFactor
}

// TempFunc evaluates the peak temperature of the design at a given
// total power in watts. The Table 5 temperature column comes from the
// thermal solver; callers supply a closure that runs it.
type TempFunc func(powerW float64) float64

// SameTempFreq searches for the coupled voltage/frequency point at
// which the design's peak temperature matches targetTempC, using
// bisection over frequency in [lo, hi]. Temperature must be monotone
// in power (it is: conduction is linear).
func (l Laws) SameTempFreq(d Design, temp TempFunc, targetTempC float64) (float64, error) {
	lo, hi := 0.5, 1.5
	pw := func(f float64) float64 {
		v := l.VccForFreq(f)
		return d.BasePowerW * d.PowerFactor * v * v * f
	}
	tLo, tHi := temp(pw(lo)), temp(pw(hi))
	if (tLo-targetTempC)*(tHi-targetTempC) > 0 {
		return 0, fmt.Errorf("power: target temperature %.2f not bracketed by [%.2f, %.2f]",
			targetTempC, tLo, tHi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if math.Abs(hi-lo) < 1e-6 {
			return mid, nil
		}
		if (temp(pw(mid))-targetTempC)*(tLo-targetTempC) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Table5Row labels the paper's five scaling scenarios.
type Table5Row int

const (
	// RowBaseline is the planar design at Vcc=1, Freq=1.
	RowBaseline Table5Row = iota
	// RowSamePower reinvests the 3D power saving in frequency.
	RowSamePower
	// RowSameFreq takes the 3D design at the baseline frequency.
	RowSameFreq
	// RowSameTemp scales voltage down to the baseline temperature.
	RowSameTemp
	// RowSamePerf scales voltage down to the baseline performance.
	RowSamePerf
)

// String names the row as in Table 5.
func (r Table5Row) String() string {
	switch r {
	case RowBaseline:
		return "Baseline"
	case RowSamePower:
		return "Same Pwr"
	case RowSameFreq:
		return "Same Freq."
	case RowSameTemp:
		return "Same Temp"
	case RowSamePerf:
		return "Same Perf."
	default:
		return fmt.Sprintf("Table5Row(%d)", int(r))
	}
}

// Table5 computes all five rows for the design. temp supplies peak
// temperatures (the baseline row is evaluated at the baseline's power
// with the baseline's floorplan — callers pass a TempFunc for the 3D
// stack and the planar baseline temperature separately).
func (l Laws) Table5(d Design, threeDTemp TempFunc, baselineTempC float64) ([]Point, error) {
	rows := make([]Point, 0, 5)

	base := Point{
		Name: RowBaseline.String(), Vcc: 1, Freq: 1,
		PowerW: d.BasePowerW, PowerPct: 100, PerfPct: 100,
	}
	rows = append(rows, base)

	fSamePwr := l.SamePowerFreq(d)
	p, err := l.At(d, RowSamePower.String(), 1, fSamePwr)
	if err != nil {
		return nil, err
	}
	rows = append(rows, p)

	p, err = l.At(d, RowSameFreq.String(), 1, 1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, p)

	fTemp, err := l.SameTempFreq(d, threeDTemp, baselineTempC)
	if err != nil {
		return nil, err
	}
	p, err = l.At(d, RowSameTemp.String(), l.VccForFreq(fTemp), fTemp)
	if err != nil {
		return nil, err
	}
	rows = append(rows, p)

	fPerf := l.FreqForPerf(d, 100)
	p, err = l.At(d, RowSamePerf.String(), l.VccForFreq(fPerf), fPerf)
	if err != nil {
		return nil, err
	}
	rows = append(rows, p)

	return rows, nil
}
