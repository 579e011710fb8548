package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/floorplan"
	"diestack/internal/power"
	"diestack/internal/thermal"
	"diestack/internal/wire"
)

// The renderers print each result of the evaluation as text, the one
// format that the diestack front end and the root benchmarks share;
// paper values come from the anchor table. Each writes through a
// bufio.Writer, whose Flush returns the first write error.

// RenderTable2 prints the thermal constants (Table 2).
func RenderTable2(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString("Thermal constants (Table 2):\n")
	row := func(name, format string, v float64) { fmt.Fprintf(b, "  %-22s "+format+"\n", name, v) }
	row("Si #1 thickness", "%.0f um", thermal.Si1Thickness*1e6)
	row("Si #2 thickness", "%.0f um", thermal.Si2Thickness*1e6)
	row("Si ther cond", "%.0f W/mK", thermal.Silicon.Conductivity)
	row("Cu metal thickness", "%.0f um", thermal.CuMetalThickness*1e6)
	row("Cu metal ther cond", "%.0f W/mK", thermal.CuMetal.Conductivity)
	row("Al metal thickness", "%.0f um", thermal.AlMetalThickness*1e6)
	row("Al metal ther cond", "%.0f W/mK", thermal.AlMetal.Conductivity)
	row("Bond thickness", "%.0f um", thermal.BondThickness*1e6)
	row("Bond ther cond", "%.0f W/mK", thermal.BondLayer.Conductivity)
	row("Ambient temperature", "%.0f C", thermal.AmbientC)
	return b.Flush()
}

// RenderTable3 prints the machine parameters (Table 3).
func RenderTable3(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString("Machine parameters (Table 3):\n")
	for _, o := range MemoryOptions() {
		cfg, err := o.HierarchyConfig()
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "  %-8s L2 %2d MB (%s), line %dB, %d-way, tag latency %d cyc\n",
			o, o.CapacityMB(), cfg.L2Type, cfg.L2.LineBytes, cfg.L2.Ways, cfg.L2.Latency)
	}
	base, err := Planar4MB.HierarchyConfig()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "  L1I/L1D: %d KB, %dB line, %d-way, %d cyc\n",
		base.L1D.SizeBytes>>10, base.L1D.LineBytes, base.L1D.Ways, base.L1D.Latency)
	fmt.Fprintf(b, "  Main memory: %d banks, %d KB page, page open %d / precharge %d / read %d cyc, +%d interface\n",
		base.Memory.Banks, base.Memory.PageBytes>>10,
		base.Memory.Timing.PageOpen, base.Memory.Timing.Precharge, base.Memory.Timing.Read,
		base.Memory.Overhead)
	fmt.Fprintf(b, "  Off-die bus: %.0f GB/s at %.1f GHz (%.0f mW/Gb/s)\n",
		base.BusBytesPerCycle*base.CoreGHz, base.CoreGHz, base.BusPicoJoulePerBit)
	return b.Flush()
}

// RenderFigure3 prints one layer's conductivity sweep (Figure 3).
func RenderFigure3(w io.Writer, layer SweepLayer, pts []SensitivityPoint) error {
	b := bufio.NewWriter(w)
	b.WriteString("Figure 3 — peak temperature vs layer conductivity (stacked microprocessor):\n")
	fmt.Fprintf(b, "  %s:\n", layer)
	for _, p := range pts {
		fmt.Fprintf(b, "    k=%5.1f W/mK  peak %.2f degC\n", p.ConductivityWmK, p.PeakC)
	}
	return b.Flush()
}

// RenderFigure5 prints the CPMA and off-die bandwidth sweep (Figure 5)
// at workload scale (<= 0 generates, and prints, as the reference
// scale 1); with faults, the fault schedule, the per-row fault columns
// and the totals. A sweep of more than one benchmark ends with the
// 32 MB headline.
func RenderFigure5(w io.Writer, res *Figure5Result, scale float64, faults *FaultParams) error {
	if scale <= 0 {
		scale = 1
	}
	b := bufio.NewWriter(w)
	fmt.Fprintf(b, "Figure 5 — CPMA and off-die bandwidth, scale %.2f:\n", scale)
	fc := faults.Config()
	if fc.Enabled() {
		fmt.Fprintf(b, "fault injection on the stacked DRAM cache: seed %d, %g corr + %g uncorr per M reads, %d dead bank(s), %.0f%% via lanes lost\n",
			fc.Seed, fc.CorrectablePerMAccess, fc.UncorrectablePerMAccess,
			len(fc.DeadBanks), fc.TSVFailFrac*100)
	}
	tw := tabwriter.NewWriter(b, 2, 0, 2, ' ', 0)
	header := "benchmark\tcapacity\tCPMA\tBW GB/s\tbus W\ttraffic MB"
	if fc.Enabled() {
		header += "\tECC fix\tpoisoned\tunrec\tremapped"
	}
	fmt.Fprintln(tw, header)
	var faultTotal fault.Stats
	var remapTotal uint64
	for _, row := range res.Rows {
		for _, p := range row {
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.2f\t%.3f\t%.1f",
				p.Benchmark, p.Option, p.CPMA, p.BandwidthGBs, p.BusPowerW, float64(p.OffDieBytes)/(1<<20))
			if fc.Enabled() {
				fmt.Fprintf(tw, "\t%d\t%d\t%d\t%d",
					p.Faults.Corrected, p.Faults.LinesPoisoned, p.Faults.Unrecovered, p.DRAMRemapped)
				faultTotal.Merge(p.Faults)
				remapTotal += p.DRAMRemapped
			}
			fmt.Fprintln(tw)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if fc.Enabled() {
		fmt.Fprintf(b, "\nfault totals: %d ECC checks, %d corrected, %d uncorrectable (%d refetches, %d unrecovered), %d bank remaps, %d retry cycles added\n",
			faultTotal.ECCChecks, faultTotal.Corrected, faultTotal.Uncorrectable,
			faultTotal.Refetches, faultTotal.Unrecovered, remapTotal, faultTotal.RetryCyclesAdded)
	}
	if len(res.Rows) > 1 {
		h := res.Headline()
		fmt.Fprintf(b, "\n32MB vs baseline: average CPMA reduction %.1f%% (paper %g%%), peak %.1f%% on %s (paper ~%g%%)\n",
			h.AvgCPMAReductionPct, paperValue("E4", "avg CPMA reduction"),
			h.MaxCPMAReductionPct, h.MaxReductionBenchmark, paperValue("E4", "peak CPMA reduction"))
	}
	return b.Flush()
}

// RenderFigure6 prints the planar baseline's thermal map as ASCII
// shading, with its hottest and coolest spots and the power map's peak
// density (Figure 6).
func RenderFigure6(w io.Writer, res Figure6Result) error {
	b := bufio.NewWriter(w)
	low, peak := res.TemperatureRange()
	fmt.Fprintf(b, "Figure 6 — baseline planar thermal map: peak %.2f degC (paper %g), coolest %.2f (paper %g)\n",
		peak, paperValue("E5", "peak"), low, paperValue("E5", "coolest"))
	writeShades(b, res.Temperature, low, peak)
	_, maxPD := mapRange(res.PowerDensity)
	fmt.Fprintf(b, "  peak power density %.2f W/mm2\n", maxPD/1e6)
	return b.Flush()
}

// RenderThermalMap prints one memory stack's CPU-layer thermal map as
// ASCII shading, with its hottest and coolest spots (Figure 8b).
func RenderThermalMap(w io.Writer, o MemoryOption, tm [][]float64) error {
	b := bufio.NewWriter(w)
	low, peak := mapRange(tm)
	fmt.Fprintf(b, "Figure 8b — %s CPU-layer thermal map: peak %.2f degC, coolest %.2f\n", o, peak, low)
	writeShades(b, tm, low, peak)
	return b.Flush()
}

// writeShades draws the map tm, spanning [low, peak], as ASCII shading,
// every other row for the aspect ratio.
func writeShades(b *bufio.Writer, tm [][]float64, low, peak float64) {
	shades := []byte(" .:-=+*#%@")
	for y := len(tm) - 1; y >= 0; y -= 2 {
		line := make([]byte, len(tm[y]))
		for x := range tm[y] {
			f := (tm[y][x] - low) / (peak - low + 1e-9)
			line[x] = shades[int(f*float64(len(shades)-1))]
		}
		fmt.Fprintf(b, "  %s\n", line)
	}
}

// TemperatureRange returns the thermal map's coolest and hottest
// temperatures.
func (r Figure6Result) TemperatureRange() (lowC, peakC float64) {
	return mapRange(r.Temperature)
}

// mapRange returns the least and greatest values of m.
func mapRange(m [][]float64) (lo, hi float64) {
	lo, hi = 1e9, -1e9
	for _, row := range m {
		for _, v := range row {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

// RenderFigure7 prints the four memory options' power budgets
// (Figure 7).
func RenderFigure7(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString("Power budgets (Figure 7):\n")
	for _, o := range MemoryOptions() {
		fp, err := o.Floorplan()
		if err != nil {
			return err
		}
		if fp.Dies == 1 {
			fmt.Fprintf(b, "  %-8s %6.1f W (planar die)\n", o, fp.TotalPower())
		} else {
			fmt.Fprintf(b, "  %-8s %6.1f W (CPU die %.1f W + stacked die %.1f W)\n",
				o, fp.TotalPower(), fp.DiePower(0), fp.DiePower(1))
		}
	}
	return b.Flush()
}

// RenderFigure8 prints the memory stacks' peak temperatures
// (Figure 8a).
func RenderFigure8(w io.Writer, rows []MemoryThermal) error {
	b := bufio.NewWriter(w)
	b.WriteString("Peak temperatures (Figure 8a):\n")
	for _, r := range rows {
		fmt.Fprintf(b, "  %-8s %6.2f degC  (paper %.2f)  total %6.1f W\n",
			r.Option, r.PeakC, paperValue("E7", "peak "+r.Option.String()), r.TotalPowerW)
	}
	return b.Flush()
}

// RenderTable4 prints the pipeline gains of the fold (Table 4).
func RenderTable4(w io.Writer, t4 Table4Result) error {
	b := bufio.NewWriter(w)
	b.WriteString("Table 4 — Logic+Logic 3D stacking performance improvement:\n")
	tw := tabwriter.NewWriter(b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "functionality\tstages eliminated\tpaper\tperf gain\tpaper")
	for _, r := range t4.Rows {
		paperStages := "Variable"
		if r.PaperStagesPct > 0 {
			paperStages = fmt.Sprintf("%.1f%%", r.PaperStagesPct)
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%s\t%.2f%%\t~%.2f%%\n",
			r.Name, r.StagesPct, paperStages, r.GainPct, r.PaperGainPct)
	}
	fmt.Fprintf(tw, "Total\t%.1f%%\t~%g%%\t%.2f%%\t~%g%%\n",
		t4.StagesEliminatedPct, paperValue("E8", "stages eliminated"),
		t4.TotalGainPct, paperValue("E8", "total perf gain"))
	if err := tw.Flush(); err != nil {
		return err
	}
	return b.Flush()
}

// RenderWireDerivation prints the critical paths' wire pipe stages on
// the planar and folded floorplans, the stage counts behind Table 4.
func RenderWireDerivation(w io.Writer, paths []WirePath) error {
	b := bufio.NewWriter(w)
	b.WriteString("Wire-derived stage counts (repeated-wire RC model on the two floorplans):\n")
	for _, p := range paths {
		fmt.Fprintf(b, "  %-14s planar %d stage(s) -> 3D %d\n", p.Path, p.PlanarStages, p.FoldedStages)
	}
	return b.Flush()
}

// RenderPowerDerivation prints the interconnect power the fold saves,
// derived from the two floorplans.
func RenderPowerDerivation(w io.Writer, saving wire.SavingReport) error {
	b := bufio.NewWriter(w)
	fmt.Fprintf(b, "Wire-derived power saving: planar interconnect %.1f W -> 3D %.1f W: %.1f W saved = %.1f%% of %g W (paper asserts %g%%)\n",
		saving.Planar.TotalW(), saving.Folded.TotalW(), saving.SavedW, saving.SavingPctOfTotal,
		floorplan.Pentium4TotalW, paperValue("E8", "wire power saving"))
	return b.Flush()
}

// RenderFigure11 prints the logic stacks' peak temperatures
// (Figure 11).
func RenderFigure11(w io.Writer, rows []LogicThermal) error {
	b := bufio.NewWriter(w)
	b.WriteString("Figure 11 — peak temperature of the Logic+Logic floorplans:\n")
	for _, r := range rows {
		fmt.Fprintf(b, "  %-13s %7.2f degC (paper %.2f)  %6.1f W, density %.2fx\n",
			r.Option, r.PeakC, paperValue("E9", "peak "+r.Option.String()), r.TotalPowerW, r.DensityRatio)
	}
	return b.Flush()
}

// RenderTable5 prints the voltage and frequency scaling scenarios of
// the 3D floorplan (Table 5).
func RenderTable5(w io.Writer, rows []power.Point) error {
	b := bufio.NewWriter(w)
	b.WriteString("Table 5 — frequency and voltage scaling of the 3D floorplan:\n")
	tw := tabwriter.NewWriter(b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tpower W\tpower %\tperf %\tVcc\tfreq")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.0f%%\t%.0f%%\t%.2f\t%.2f\n",
			r.Name, r.PowerW, r.PowerPct, r.PerfPct, r.Vcc, r.Freq)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return b.Flush()
}

// RenderAutoFold compares the automatic place-observe-repair fold with
// the hand-crafted Figure 10 fold.
func RenderAutoFold(w io.Writer, cmp AutoFoldComparison) error {
	b := bufio.NewWriter(w)
	b.WriteString("Automatic place-observe-repair fold vs the hand-crafted Figure 10 fold:\n")
	fmt.Fprintf(b, "  critical wire: planar %.2f mm, hand fold %.2f mm, auto fold %.2f mm\n",
		cmp.PlanarWire*1e3, cmp.HandWire*1e3, cmp.AutoWire*1e3)
	fmt.Fprintf(b, "  hand fold: peak %6.2f degC, density %.2fx, %5.1f W\n",
		cmp.Hand.PeakC, cmp.Hand.DensityRatio, cmp.Hand.TotalPowerW)
	fmt.Fprintf(b, "  auto fold: peak %6.2f degC, density %.2fx, %5.1f W\n",
		cmp.Auto.PeakC, cmp.Auto.DensityRatio, cmp.Auto.TotalPowerW)
	return b.Flush()
}

// ErrTmaxNotHeld is what RenderManagedThermal returns, once the whole
// report is printed, for a run whose verdict is not "Tmax held".
var ErrTmaxNotHeld = errors.New("core: Tmax not held")

// RenderManagedThermal prints a closed-loop DTM run: the managed
// operating point, its cost and the verdict. runErr is the run's error,
// nil or a thermal runaway; a runaway, or a peak that slipped past Tmax
// between samples, prints its verdict and returns ErrTmaxNotHeld.
func RenderManagedThermal(w io.Writer, p *ManagedThermalParams, res ManagedLogicThermal, runErr error) error {
	cfg, opt := p.resolve()
	b := bufio.NewWriter(w)
	fmt.Fprintf(b, "DTM on the %s logic stack (Tmax %.1f degC, %d samples at %.2fs):\n", res.Option, cfg.TmaxC, opt.Steps, opt.Dt)
	fmt.Fprintf(b, "  unmanaged steady peak  %7.2f degC\n", res.UnmanagedPeakC)
	fmt.Fprintf(b, "  managed peak           %7.2f degC\n", res.DTM.ManagedPeakC)
	st := res.DTM.Stats
	fmt.Fprintf(b, "  interventions          %d throttle, %d emergency, %d release (%d/%d samples throttled)\n",
		st.ThrottleSteps, st.EmergencyDrops, st.ReleaseSteps, st.SamplesThrottled, st.Samples)
	fmt.Fprintf(b, "  operating point        freq %.2f, perf %.1f%%, power %.1f%% of baseline\n",
		res.DTM.FinalFreq, res.DTM.PerfPct, res.DTM.PowerPct)
	if res.DTM.Fallback {
		b.WriteString("  stacked die PARKED (2D-equivalent fallback)\n")
	}
	if p.Faults.Config().Enabled() {
		fmt.Fprintf(b, "  sensor                 %d reads, peak sensed %.2f vs true %.2f degC\n",
			res.Faults.SensorReads, st.PeakSensedC, st.PeakTrueC)
	}
	verdict := error(nil)
	switch {
	case runErr != nil:
		fmt.Fprintf(b, "  VERDICT: %v\n", runErr)
		verdict = ErrTmaxNotHeld
	case res.DTM.ManagedPeakC > cfg.TmaxC:
		// No runaway, but sampling let the peak slip past the ceiling
		// between interventions.
		fmt.Fprintf(b, "  VERDICT: Tmax exceeded transiently by %.2f degC — widen -hysteresis_c or shrink -dt_s\n",
			res.DTM.ManagedPeakC-cfg.TmaxC)
		verdict = ErrTmaxNotHeld
	default:
		b.WriteString("  VERDICT: Tmax held\n")
	}
	if err := b.Flush(); err != nil {
		return err
	}
	return verdict
}

// printers holds each experiment's text report: the diestack command
// of that name prints one request's value through it. runErr is the
// run's error, which only a managed-logic-thermal runaway passes.
var printers = map[string]func(w io.Writer, req ExperimentRequest, v any, runErr error) error{
	"fig3": func(w io.Writer, req ExperimentRequest, v any, _ error) error {
		layer, err := sweepLayerForSlug(req.Params.(*Fig3Params).Layer)
		if err != nil {
			return err
		}
		return RenderFigure3(w, layer, v.([]SensitivityPoint))
	},
	"fig5": func(w io.Writer, req ExperimentRequest, v any, _ error) error {
		return RenderFigure5(w, v.(*Figure5Result), req.Spec.Scale, req.Params.(*Fig5Params).Faults)
	},
	"fig6": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderFigure6(w, v.(Figure6Result))
	},
	"fig8": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderFigure8(w, v.([]MemoryThermal))
	},
	"memory-thermal-map": func(w io.Writer, req ExperimentRequest, v any, _ error) error {
		o, err := MemoryOptionForCapacity(req.Params.(*MemoryThermalParams).CapacityMB)
		if err != nil {
			return err
		}
		return RenderThermalMap(w, o, v.([][]float64))
	},
	"fig11": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderFigure11(w, v.([]LogicThermal))
	},
	"table4": func(w io.Writer, _ ExperimentRequest, v any, _ error) error { return RenderTable4(w, v.(Table4Result)) },
	"wire-derivation": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderWireDerivation(w, v.([]WirePath))
	},
	"power-derivation": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderPowerDerivation(w, v.(wire.SavingReport))
	},
	"table5": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderTable5(w, v.([]power.Point))
	},
	"autofold": func(w io.Writer, _ ExperimentRequest, v any, _ error) error {
		return RenderAutoFold(w, v.(AutoFoldComparison))
	},
	"managed-logic-thermal": func(w io.Writer, req ExperimentRequest, v any, runErr error) error {
		return RenderManagedThermal(w, req.Params.(*ManagedThermalParams), v.(ManagedLogicThermal), runErr)
	},
}

// PrintResult writes the text report of one run of the named
// experiment: req is the request it ran, and v and runErr what it
// returned. A run that failed prints nothing and returns runErr, except
// a managed-logic-thermal runaway, which still carries its trajectory.
// An experiment with no printer (memory-perf, memory-thermal,
// logic-thermal, multi-die, campaign) is an error.
func PrintResult(w io.Writer, name string, req ExperimentRequest, v any, runErr error) error {
	render, ok := printers[name]
	if !ok {
		return fmt.Errorf("core: experiment %q has no text report", name)
	}
	if runErr != nil && !errors.Is(runErr, dtm.ErrThermalRunaway) {
		return runErr
	}
	return render(w, req, v, runErr)
}
