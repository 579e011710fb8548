// Package dtm implements closed-loop dynamic thermal management for
// the die-stacked designs: a controller samples the transient thermal
// solver's peak temperature through a (possibly faulty) sensor and
// throttles voltage and frequency with hysteresis, guaranteeing the
// stack stays under a configurable Tmax by trading performance.
//
// The control actuator is the paper's own voltage/frequency scaling
// relations (power.Laws): frequency tracks voltage 1:1, dynamic power
// scales as V²f, and performance follows the 0.82%-per-1%-frequency
// law, so every throttle step has a well-defined performance and power
// cost. As a last resort the controller can park the stacked die
// (2D-equivalent mode), cutting the stack's power to the fraction the
// base die contributes.
package dtm

import (
	"context"
	"errors"
	"fmt"
	"math"

	"diestack/internal/obs"
	"diestack/internal/power"
	"diestack/internal/thermal"
)

// ErrThermalRunaway marks a run whose peak temperature stayed above
// Tmax for RunawaySamples consecutive samples even at minimum throttle
// (and after the stacked-die fallback, when enabled). Callers match it
// with errors.Is.
var ErrThermalRunaway = errors.New("dtm: thermal runaway")

// Defaults used when the corresponding Config field is zero.
const (
	// DefaultHysteresisC is the guard band below Tmax where throttling
	// begins, and the dead band that prevents limit cycling.
	DefaultHysteresisC = 2.0
	// DefaultStepPct is the relative frequency change of one throttle
	// or release step, in percent.
	DefaultStepPct = 5.0
	// DefaultMinFreq is the throttle floor as a fraction of nominal
	// frequency.
	DefaultMinFreq = 0.5
	// DefaultRunawaySamples is how many consecutive over-Tmax samples
	// at the floor escalate to fallback (or to ErrThermalRunaway).
	DefaultRunawaySamples = 8
)

// Config tunes the controller.
type Config struct {
	// TmaxC is the peak temperature the stack must not sustain.
	// Required; must exceed the ambient the stack is solved with.
	TmaxC float64
	// HysteresisC is the guard/dead band in degrees C (zero selects
	// DefaultHysteresisC). Throttling starts at Tmax-Hysteresis;
	// releasing waits until Tmax-2*Hysteresis.
	HysteresisC float64
	// StepPct is the per-sample frequency step in percent (zero
	// selects DefaultStepPct).
	StepPct float64
	// MinFreq is the throttle floor as a fraction of nominal frequency
	// (zero selects DefaultMinFreq).
	MinFreq float64
	// FallbackPowerFraction, when in (0,1], arms the last-resort
	// stacked-die shutdown: if the floor cannot hold Tmax, the stack's
	// power is additionally multiplied by this fraction (the share the
	// surviving die contributes) and the design's stacking performance
	// gain is forfeited. Zero disables the fallback.
	FallbackPowerFraction float64
	// RunawaySamples is how many consecutive over-Tmax samples at
	// minimum throttle escalate (zero selects DefaultRunawaySamples).
	RunawaySamples int
	// Obs, when non-nil, receives a live dtm_freq gauge, a "dtm/step"
	// span per control step and, when Run or RunWorkspace returns, the
	// change in the controller's Stats over the run as the counters
	// dtm_samples, dtm_throttle_steps, dtm_emergency_drops,
	// dtm_release_steps and dtm_fallbacks. A nil registry costs nothing.
	Obs *obs.Registry
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TmaxC <= 0 || math.IsNaN(c.TmaxC) {
		return fmt.Errorf("dtm: TmaxC must be positive, got %v", c.TmaxC)
	}
	if c.HysteresisC < 0 || math.IsNaN(c.HysteresisC) {
		return fmt.Errorf("dtm: negative HysteresisC %v", c.HysteresisC)
	}
	if c.HysteresisC >= c.TmaxC {
		return fmt.Errorf("dtm: HysteresisC %v swallows TmaxC %v", c.HysteresisC, c.TmaxC)
	}
	if c.StepPct < 0 || c.StepPct > 50 || math.IsNaN(c.StepPct) {
		return fmt.Errorf("dtm: StepPct must be in [0,50], got %v", c.StepPct)
	}
	if c.MinFreq < 0 || c.MinFreq > 1 || math.IsNaN(c.MinFreq) {
		return fmt.Errorf("dtm: MinFreq must be in [0,1], got %v", c.MinFreq)
	}
	if c.FallbackPowerFraction < 0 || c.FallbackPowerFraction > 1 || math.IsNaN(c.FallbackPowerFraction) {
		return fmt.Errorf("dtm: FallbackPowerFraction must be in [0,1], got %v", c.FallbackPowerFraction)
	}
	if c.RunawaySamples < 0 {
		return fmt.Errorf("dtm: negative RunawaySamples %d", c.RunawaySamples)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.HysteresisC == 0 {
		c.HysteresisC = DefaultHysteresisC
	}
	if c.StepPct == 0 {
		c.StepPct = DefaultStepPct
	}
	if c.MinFreq == 0 {
		c.MinFreq = DefaultMinFreq
	}
	if c.RunawaySamples == 0 {
		c.RunawaySamples = DefaultRunawaySamples
	}
	return c
}

// Stats aggregates the controller's interventions over a run.
type Stats struct {
	// Samples is the number of temperature samples consumed.
	Samples uint64
	// ThrottleSteps counts single-step frequency reductions (guard
	// band entered).
	ThrottleSteps uint64
	// EmergencyDrops counts jumps straight to the frequency floor
	// (Tmax itself crossed).
	EmergencyDrops uint64
	// ReleaseSteps counts single-step frequency restorations.
	ReleaseSteps uint64
	// SamplesThrottled counts samples spent below nominal frequency.
	SamplesThrottled uint64
	// FallbackEngaged reports whether the stacked die was parked.
	FallbackEngaged bool
	// MinScale is the lowest power multiplier applied.
	MinScale float64
	// PeakSensedC and PeakTrueC are the hottest sensed and true
	// samples seen (they diverge under sensor faults).
	PeakSensedC, PeakTrueC float64
}

// Controller is the closed-loop governor. Its Step method matches
// thermal.TransientOptions.PowerScale, so installing a controller is
//
//	opt.PowerScale = ctrl.Step
//
// (or use Run, which does this and surfaces controller errors).
// Not safe for concurrent use.
type Controller struct {
	cfg      Config
	laws     power.Laws
	design   power.Design
	sensor   func(trueC float64) float64
	freq     float64
	fallback bool
	overN    int
	err      error
	stats    Stats
	// freqGauge shows freq live as dtm_freq; nil (a no-op) without
	// Config.Obs.
	freqGauge *obs.Gauge
}

// New builds a controller. sensor translates true peak temperature to
// the sensed one (fault.Injector.Sensor provides faulty models); nil
// means an ideal sensor. laws and design supply the V/f actuator — the
// paper's values are power.PaperLaws() and power.Pentium4ThreeDDesign().
func New(cfg Config, laws power.Laws, design power.Design, sensor func(float64) float64) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:    cfg.withDefaults(),
		laws:   laws,
		design: design,
		sensor: sensor,
		freq:   1,
		stats:  Stats{MinScale: 1, PeakSensedC: math.Inf(-1), PeakTrueC: math.Inf(-1)},
		// A nil registry hands out a nil gauge.
		freqGauge: cfg.Obs.Gauge("dtm_freq"),
	}
	c.freqGauge.Set(1)
	return c, nil
}

// Freq returns the current relative frequency.
func (c *Controller) Freq() float64 { return c.freq }

// InFallback reports whether the stacked die has been parked.
func (c *Controller) InFallback() bool { return c.fallback }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Err returns the controller's terminal condition: nil, or an error
// wrapping ErrThermalRunaway.
func (c *Controller) Err() error { return c.err }

// Scale returns the power multiplier at the current operating point:
// V²f relative to nominal, times the fallback fraction when the
// stacked die is parked.
func (c *Controller) Scale() float64 {
	v := c.laws.VccForFreq(c.freq)
	s := v * v * c.freq
	if c.fallback {
		s *= c.cfg.FallbackPowerFraction
	}
	return s
}

// PerfPct reports delivered performance relative to the planar
// baseline (=100) at the current operating point. In fallback the
// design's stacking gain is forfeited along with the stacked die.
func (c *Controller) PerfPct() float64 {
	gain := c.design.PerfGainPct
	if c.fallback {
		gain = 0
	}
	return 100 + gain + c.laws.PerfPerFreqPct*(c.freq-1)*100
}

// PowerPct reports power at the current operating point relative to
// the baseline design's power.
func (c *Controller) PowerPct() float64 {
	return c.design.PowerFactor * c.Scale() * 100
}

// Step consumes one peak-temperature sample (true degrees C) and
// returns the power multiplier for the next interval. It is shaped to
// serve directly as thermal.TransientOptions.PowerScale.
func (c *Controller) Step(_ float64, trueC float64) float64 {
	sp := c.cfg.Obs.StartSpan("dtm/step")
	defer sp.End()
	c.stats.Samples++
	sensed := trueC
	if c.sensor != nil {
		sensed = c.sensor(trueC)
	}
	if sensed > c.stats.PeakSensedC {
		c.stats.PeakSensedC = sensed
	}
	if trueC > c.stats.PeakTrueC {
		c.stats.PeakTrueC = trueC
	}

	step := c.cfg.StepPct / 100
	guard := c.cfg.TmaxC - c.cfg.HysteresisC
	switch {
	case sensed >= c.cfg.TmaxC:
		// The limit itself was reached: drop straight to the floor.
		if c.freq > c.cfg.MinFreq {
			c.freq = c.cfg.MinFreq
			c.stats.EmergencyDrops++
		}
		c.overN++
		c.escalate()
	case sensed >= guard:
		// Guard band: back off one step.
		if c.freq > c.cfg.MinFreq {
			c.freq = math.Max(c.cfg.MinFreq, c.freq-step)
			c.stats.ThrottleSteps++
		}
		c.overN = 0
	case sensed < guard-c.cfg.HysteresisC:
		// Comfortably cool: restore one step. Fallback is one-way —
		// a parked die stays parked for the rest of the run.
		if c.freq < 1 && !c.fallback {
			c.freq = math.Min(1, c.freq+step)
			c.stats.ReleaseSteps++
		}
		c.overN = 0
	default:
		// Dead band: hold.
		c.overN = 0
	}

	c.freqGauge.Set(c.freq)
	scale := c.Scale()
	if scale < c.stats.MinScale {
		c.stats.MinScale = scale
	}
	if c.freq < 1 || c.fallback {
		c.stats.SamplesThrottled++
	}
	return scale
}

// escalate handles sustained over-Tmax operation at the floor: first
// the stacked-die fallback (when armed), then ErrThermalRunaway.
func (c *Controller) escalate() {
	if c.overN < c.cfg.RunawaySamples {
		return
	}
	if c.cfg.FallbackPowerFraction > 0 && !c.fallback {
		c.fallback = true
		c.stats.FallbackEngaged = true
		c.overN = 0
		return
	}
	if c.err == nil {
		c.err = fmt.Errorf("dtm: peak above Tmax=%.1fC for %d consecutive samples at minimum throttle: %w",
			c.cfg.TmaxC, c.cfg.RunawaySamples, ErrThermalRunaway)
	}
}

// Result reports one managed transient run.
type Result struct {
	// Transient is the full solver trajectory (temperatures, times,
	// and the power scale actually applied at every step).
	Transient *thermal.TransientResult
	// Stats are the controller's intervention counters.
	Stats Stats
	// ManagedPeakC is the hottest step of the managed run.
	ManagedPeakC float64
	// FinalFreq, FinalScale, PerfPct and PowerPct describe the
	// operating point the controller settled at.
	FinalFreq, FinalScale float64
	PerfPct, PowerPct     float64
	// Fallback reports whether the stacked die was parked.
	Fallback bool
}

// Run integrates the stack's transient response with the controller in
// the loop and returns the trajectory plus the controller's verdict.
// The returned error wraps ErrThermalRunaway when even minimum
// throttle (and the fallback, if armed) could not hold Tmax; the
// partial Result is still returned alongside it for diagnosis.
func Run(ctx context.Context, s *thermal.Stack, opt thermal.TransientOptions, ctrl *Controller) (Result, error) {
	w, err := thermal.NewWorkspace(s)
	if err != nil {
		return Result{}, fmt.Errorf("dtm: transient solve: %w", err)
	}
	defer w.Close()
	return RunWorkspace(ctx, w, opt, ctrl)
}

// RunWorkspace is Run on a caller-owned thermal Workspace: a campaign
// running many managed transients over one geometry discretizes the
// stack once and reuses it (power-map edits between runs are picked
// up). The workspace remains usable — and owned by the caller —
// afterwards. On every return the change in the controller's Stats is
// published to its Config.Obs.
func RunWorkspace(ctx context.Context, w *thermal.Workspace, opt thermal.TransientOptions, ctrl *Controller) (Result, error) {
	if reg := ctrl.cfg.Obs; reg != nil {
		was := ctrl.stats
		defer func() { publish(reg, was, ctrl.stats) }()
	}
	if opt.PowerScale != nil {
		return Result{}, fmt.Errorf("dtm: TransientOptions.PowerScale is reserved for the controller")
	}
	opt.PowerScale = ctrl.Step
	if opt.Obs == nil {
		opt.Obs = ctrl.cfg.Obs
	}
	tr, err := w.SolveTransient(ctx, opt)
	if err != nil {
		return Result{}, fmt.Errorf("dtm: transient solve: %w", err)
	}
	res := Result{
		Transient:    tr,
		Stats:        ctrl.Stats(),
		ManagedPeakC: peakOf(tr),
		FinalFreq:    ctrl.Freq(),
		FinalScale:   ctrl.Scale(),
		PerfPct:      ctrl.PerfPct(),
		PowerPct:     ctrl.PowerPct(),
		Fallback:     ctrl.InFallback(),
	}
	if cerr := ctrl.Err(); cerr != nil {
		return res, cerr
	}
	return res, nil
}

// publish adds the change in a controller's books from was to now to
// reg's dtm_* counters. The fallback is one-way, so dtm_fallbacks
// counts whether it engaged in between.
func publish(reg *obs.Registry, was, now Stats) {
	reg.Counter("dtm_samples").Add(now.Samples - was.Samples)
	reg.Counter("dtm_throttle_steps").Add(now.ThrottleSteps - was.ThrottleSteps)
	reg.Counter("dtm_emergency_drops").Add(now.EmergencyDrops - was.EmergencyDrops)
	reg.Counter("dtm_release_steps").Add(now.ReleaseSteps - was.ReleaseSteps)
	var fallbacks uint64
	if now.FallbackEngaged && !was.FallbackEngaged {
		fallbacks = 1
	}
	reg.Counter("dtm_fallbacks").Add(fallbacks)
}

// peakOf returns the hottest step of a trajectory.
func peakOf(tr *thermal.TransientResult) float64 {
	peak := math.Inf(-1)
	for _, p := range tr.PeakC {
		if p > peak {
			peak = p
		}
	}
	return peak
}
