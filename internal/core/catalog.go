package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"

	"diestack/internal/canon"
	"diestack/internal/dtm"
	"diestack/internal/fault"
	"diestack/internal/harness"
	"diestack/internal/thermal"
	"diestack/internal/workload"
)

// This file is the experiment catalog: every paper figure, table, and
// extension registered under one uniform entry point. The diestack
// front end, the campaign expansion, and the stackd service all
// dispatch through it, so "which experiments exist and what do they
// take" has exactly one answer. Each experiment also defines a
// canonical wire form (EncodeRequest/DecodeRequest) whose SHA-256 is the
// service's cache key: semantically equal requests — defaults spelled
// out or omitted — encode to equal bytes.

// ExperimentRequest invokes one catalog experiment: the cross-cutting
// spec plus the experiment's own parameters (a pointer to its params
// struct as returned by Experiment.NewParams, or nil for defaults).
type ExperimentRequest struct {
	Spec   RunSpec
	Params any
}

// ExperimentResult is the uniform return shape: the experiment's name
// and its native result value (e.g. a MemoryPerf, a []LogicThermal).
type ExperimentResult struct {
	Experiment string
	Value      any
}

// Experiment is one catalog entry: a named, documented runner with a
// typed parameter schema.
type Experiment struct {
	// Name is the catalog key and the URL path segment under
	// /v1/experiments/.
	Name string
	// Doc is a one-line description.
	Doc string
	// NewParams returns a zero parameter struct pointer, or is nil for
	// parameterless experiments. Field JSON tags (all omit-default)
	// define the wire schema.
	NewParams func() any
	// Runner executes the experiment. params is guaranteed to be the
	// type NewParams returns (never nil when NewParams is set).
	Runner func(ctx context.Context, spec RunSpec, params any) (any, error)

	// fn lists the exported core functions this entry dispatches to;
	// the catalog completeness test checks every Run* appears somewhere.
	fn []string
}

// Run invokes the experiment. A nil req.Params selects all-default
// parameters; a non-nil value must be the exact type NewParams
// returns. On error the result may still carry a partial value (the
// managed-thermal experiment returns its trajectory alongside
// dtm.ErrThermalRunaway).
func (e Experiment) Run(ctx context.Context, req ExperimentRequest) (ExperimentResult, error) {
	params, err := e.checkParams(req.Params)
	if err != nil {
		return ExperimentResult{}, err
	}
	v, err := e.Runner(ctx, req.Spec, params)
	return ExperimentResult{Experiment: e.Name, Value: v}, err
}

// checkParams validates req.Params against the experiment's schema and
// fills in the all-default struct when none were given.
func (e Experiment) checkParams(p any) (any, error) {
	if e.NewParams == nil {
		if p != nil {
			return nil, fmt.Errorf("core: experiment %q takes no parameters, got %T", e.Name, p)
		}
		return nil, nil
	}
	if p == nil {
		return e.NewParams(), nil
	}
	if want, got := reflect.TypeOf(e.NewParams()), reflect.TypeOf(p); got != want {
		return nil, fmt.Errorf("core: experiment %q wants %s parameters, got %T", e.Name, want, p)
	}
	return p, nil
}

// ParamsSchema lists the experiment's parameter fields as JSON field
// name → kind ("number", "string", "boolean", "array", "object"),
// derived from the params struct tags. Nil for parameterless
// experiments.
func (e Experiment) ParamsSchema() map[string]string {
	if e.NewParams == nil {
		return nil
	}
	return fieldKinds(reflect.TypeOf(e.NewParams()).Elem())
}

// SpecSchema lists RunSpec's wire fields as ParamsSchema lists a params
// struct's.
func SpecSchema() map[string]string { return fieldKinds(reflect.TypeOf(RunSpec{})) }

// fieldKinds maps each JSON-tagged field of struct type t to its kind.
func fieldKinds(t reflect.Type) map[string]string {
	out := make(map[string]string, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.Struct, reflect.Map:
			out[name] = "object"
		case reflect.Slice, reflect.Array:
			out[name] = "array"
		case reflect.String:
			out[name] = "string"
		case reflect.Bool:
			out[name] = "boolean"
		default:
			out[name] = "number"
		}
	}
	return out
}

// requestWire is the canonical body of an experiment invocation — what
// stackd hashes into its cache key.
//
//canon:wire
type requestWire struct {
	Experiment string          `json:"experiment"`
	Spec       RunSpec         `json:"spec"`
	Params     json.RawMessage `json:"params,omitempty"`
}

// EncodeRequest renders req in canonical form: compact JSON with the
// experiment name, the spec's wire fields, and the params with
// every default omitted (all-default params vanish entirely, so "no
// params" and "explicit defaults" encode to the same bytes). The
// SHA-256 of these bytes is the request's cache key.
func (e Experiment) EncodeRequest(req ExperimentRequest) ([]byte, error) {
	params, err := e.checkParams(req.Params)
	if err != nil {
		return nil, err
	}
	w := requestWire{Experiment: e.Name, Spec: req.Spec}
	if params != nil {
		raw, err := canon.Marshal(params)
		if err != nil {
			return nil, err
		}
		if string(raw) != "{}" {
			w.Params = raw
		}
	}
	return canon.Marshal(w)
}

// DecodeRequest parses a request body for this experiment. The
// "experiment" field may be omitted (the route names it) but must
// match when present; unknown fields anywhere are rejected, and so is
// a spec or params outside the bounds an outside request may ask for
// (grid in [0, 256], scale in [0, 4], at most 1M instructions, 0 to
// 10k steps, a non-negative DTM interval and 64 conductivities) or
// naming what does not exist (a benchmark, capacity, logic variant or
// Figure 3 layer, a repeated benchmark, or fault params the fault
// model or the selected memory hierarchies reject), and DTM params the
// controller rejects once defaulted. An experiment that takes
// parameters always gets a NewParams pointer back, all-default when
// the body omits them.
func (e Experiment) DecodeRequest(data []byte) (ExperimentRequest, error) {
	var w requestWire
	if err := canon.Unmarshal(data, &w); err != nil {
		return ExperimentRequest{}, err
	}
	if w.Experiment != "" && w.Experiment != e.Name {
		return ExperimentRequest{}, fmt.Errorf("core: request names experiment %q, not %q", w.Experiment, e.Name)
	}
	req := ExperimentRequest{Spec: w.Spec}
	if len(w.Params) > 0 && string(w.Params) != "null" {
		if e.NewParams == nil {
			return ExperimentRequest{}, fmt.Errorf("core: experiment %q takes no parameters", e.Name)
		}
		p := e.NewParams()
		if err := canon.Unmarshal(w.Params, p); err != nil {
			return ExperimentRequest{}, err
		}
		req.Params = p
	}
	if req.Params == nil && e.NewParams != nil {
		req.Params = e.NewParams()
	}
	if err := req.checkWire(); err != nil {
		return ExperimentRequest{}, err
	}
	return req, nil
}

// Bounds on params that size a run arriving from outside the process:
// past them a run allocates or loops without limit. Every in-repo
// caller stays within 200k instructions, 600 steps and Figure 3's nine
// points.
const (
	maxWireInstructions   = 1_000_000
	maxWireSteps          = 10_000
	maxWireConductivities = 64
)

// checkWire rejects a decoded request whose spec or params lie outside
// the bounds an outside request may ask for, or name a benchmark,
// capacity, variant, layer or fault the run would refuse: a client's
// mistake fails at decode, before it takes a solve slot. A diestack
// command line is decoded the same way, so it meets the same bounds.
func (req ExperimentRequest) checkWire() error {
	if err := req.Spec.checkWire(); err != nil {
		return err
	}
	switch p := req.Params.(type) {
	case *MemoryPerfParams:
		o, err := MemoryOptionForCapacity(p.CapacityMB)
		if err != nil {
			return err
		}
		if _, err := benchmarkForName(p.Benchmark); err != nil {
			return err
		}
		_, err = figure5Configs([]MemoryOption{o}, p.Faults.Config())
		return err
	case *Fig5Params:
		if _, err := benchmarksForNames(p.Benchmarks); err != nil {
			return err
		}
		_, err := figure5Configs(MemoryOptions(), p.Faults.Config())
		return err
	case *CampaignParams:
		_, err := benchmarksForNames(p.Benchmarks)
		return err
	case *MemoryThermalParams:
		_, err := MemoryOptionForCapacity(p.CapacityMB)
		return err
	case *LogicThermalParams:
		_, err := LogicOptionForSlug(p.Variant)
		return err
	case *Table4Params:
		if p.Instructions > maxWireInstructions {
			return fmt.Errorf("core: %d instructions above %d", p.Instructions, maxWireInstructions)
		}
	case *ManagedThermalParams:
		if p.Steps > maxWireSteps {
			return fmt.Errorf("core: %d steps above %d", p.Steps, maxWireSteps)
		}
		if p.DtSeconds < 0 || p.Steps < 0 {
			return fmt.Errorf("core: negative dt_s %v or steps %d", p.DtSeconds, p.Steps)
		}
		cfg, _ := p.resolve()
		if err := cfg.Validate(); err != nil {
			return err
		}
		if _, err := LogicOptionForSlug(p.Variant); err != nil {
			return err
		}
		if err := p.Faults.Config().Validate(); err != nil {
			return fmt.Errorf("core: faults: %w", err)
		}
	case *Fig3Params:
		if _, err := sweepLayerForSlug(p.Layer); err != nil {
			return err
		}
		if len(p.Conductivities) > maxWireConductivities {
			return fmt.Errorf("core: %d conductivities above %d", len(p.Conductivities), maxWireConductivities)
		}
		if err := checkConductivities(p.Conductivities); err != nil {
			return err
		}
	}
	return nil
}

// MemoryOptionForCapacity maps a last-level capacity in MB onto its
// Figure 5 option (0 selects the planar baseline).
func MemoryOptionForCapacity(mb int) (MemoryOption, error) {
	if mb == 0 {
		return Planar4MB, nil
	}
	for _, o := range MemoryOptions() {
		if o.CapacityMB() == mb {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: no memory option with %d MB (have 4, 12, 32, 64)", mb)
}

// LogicOptionForSlug maps a job-name slug onto its Figure 11 option
// ("" selects the planar baseline; see logicSlug for the spellings).
func LogicOptionForSlug(s string) (LogicOption, error) {
	switch s {
	case "", "planar":
		return LogicPlanar, nil
	case "3d":
		return Logic3D, nil
	case "3d-worstcase":
		return Logic3DWorst, nil
	}
	return 0, fmt.Errorf("core: unknown logic variant %q (have planar, 3d, 3d-worstcase)", s)
}

// benchmarkForName resolves a benchmark ("" selects the first RMS
// kernel).
func benchmarkForName(name string) (workload.Benchmark, error) {
	if name == "" {
		return workload.All()[0], nil
	}
	b, ok := workload.ByName(name)
	if !ok {
		return workload.Benchmark{}, unknownBenchmark(name)
	}
	return b, nil
}

// benchmarksForNames resolves a benchmark list (empty selects all
// twelve, in paper order). Every name must be known and appear once.
func benchmarksForNames(names []string) ([]workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	out := make([]workload.Benchmark, len(names))
	for i, name := range names {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, unknownBenchmark(name)
		}
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("core: benchmark %q listed twice", name)
		}
		out[i] = b
	}
	return out, nil
}

func unknownBenchmark(name string) error {
	return fmt.Errorf("core: unknown benchmark %q (have %s)", name, strings.Join(workload.Names(), ", "))
}

// sweepLayerForSlug resolves a Figure 3 layer ("" selects the Cu metal
// stack, the figure's dominant series).
func sweepLayerForSlug(s string) (SweepLayer, error) {
	switch s {
	case "", "cu-metal":
		return SweepCuMetal, nil
	case "bond":
		return SweepBond, nil
	}
	return 0, fmt.Errorf("core: unknown sweep layer %q (have cu-metal, bond)", s)
}

// FaultParams is the wire form of fault.Config: stacked-DRAM error
// rates, dead banks, via-lane loss, and sensor faults. The zero value
// injects nothing.
//
//canon:wire
type FaultParams struct {
	Seed              uint64  `json:"seed,omitempty"`
	CorrectablePerM   float64 `json:"correctable_per_m,omitempty"`
	UncorrectablePerM float64 `json:"uncorrectable_per_m,omitempty"`
	DeadBanks         []int   `json:"dead_banks,omitempty"`
	TSVFailFrac       float64 `json:"tsv_fail_frac,omitempty"`
	SensorNoiseC      float64 `json:"sensor_noise_c,omitempty"`
	SensorOffsetC     float64 `json:"sensor_offset_c,omitempty"`
	SensorStuck       bool    `json:"sensor_stuck,omitempty"`
	SensorStuckAtC    float64 `json:"sensor_stuck_at_c,omitempty"`
}

// Config converts the wire form to the fault model's configuration; a
// nil receiver injects nothing.
func (p *FaultParams) Config() fault.Config {
	if p == nil {
		return fault.Config{}
	}
	return fault.Config{
		Seed:                    p.Seed,
		CorrectablePerMAccess:   p.CorrectablePerM,
		UncorrectablePerMAccess: p.UncorrectablePerM,
		DeadBanks:               p.DeadBanks,
		TSVFailFrac:             p.TSVFailFrac,
		SensorNoiseC:            p.SensorNoiseC,
		SensorOffsetC:           p.SensorOffsetC,
		SensorStuckAt:           p.SensorStuck,
		SensorStuckAtC:          p.SensorStuckAtC,
	}
}

// Fig5Params narrows the Figure 5 sweep and injects faults into it.
//
//canon:wire
type Fig5Params struct {
	// Benchmarks restricts the sweep to the named RMS kernels, in the
	// order given; empty sweeps all twelve in paper order.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Faults, when set, injects stacked-DRAM faults into every replay.
	Faults *FaultParams `json:"faults,omitempty"`
}

// MemoryPerfParams selects one cell of the Figure 5 sweep.
//
//canon:wire
type MemoryPerfParams struct {
	// CapacityMB picks the configuration (4, 12, 32, 64; 0 = 4).
	CapacityMB int `json:"capacity_mb,omitempty"`
	// Benchmark names the RMS kernel ("" = the first).
	Benchmark string `json:"benchmark,omitempty"`
	// Faults, when set, injects stacked-DRAM faults into the replay.
	Faults *FaultParams `json:"faults,omitempty"`
}

// MemoryThermalParams selects one Figure 8 stack.
//
//canon:wire
type MemoryThermalParams struct {
	// CapacityMB picks the configuration (4, 12, 32, 64; 0 = 4).
	CapacityMB int `json:"capacity_mb,omitempty"`
}

// LogicThermalParams selects one Figure 11 bar.
//
//canon:wire
type LogicThermalParams struct {
	// Variant is planar, 3d, or 3d-worstcase ("" = planar).
	Variant string `json:"variant,omitempty"`
}

// Table4Params sizes the pipeline-gain measurement.
//
//canon:wire
type Table4Params struct {
	// Instructions per workload profile (0 = DefaultTable4Instructions).
	Instructions int `json:"instructions,omitempty"`
}

// Fig3Params selects the sensitivity sweep's layer and points.
//
//canon:wire
type Fig3Params struct {
	// Layer is cu-metal or bond ("" = cu-metal).
	Layer string `json:"layer,omitempty"`
	// Conductivities lists the swept values in W/mK (empty = the
	// paper's Figure 3 x-axis).
	Conductivities []float64 `json:"conductivities,omitempty"`
}

// MultiDieParams sizes the tall-stack sweep.
//
//canon:wire
type MultiDieParams struct {
	// MaxDies is the tallest stack solved (0 = DefaultMaxDies).
	MaxDies int `json:"max_dies,omitempty"`
}

// Defaults for the managed-thermal experiment.
const (
	DefaultManagedTmaxC = 90
	DefaultManagedDt    = 0.25
	DefaultManagedSteps = 240
)

// ManagedThermalParams configures the closed-loop DTM run.
//
//canon:wire
type ManagedThermalParams struct {
	// Variant is planar, 3d, or 3d-worstcase ("" = planar).
	Variant string `json:"variant,omitempty"`
	// TmaxC is the ceiling (0 = DefaultManagedTmaxC).
	TmaxC float64 `json:"tmax_c,omitempty"`
	// HysteresisC is the guard band (0 = the controller's default).
	HysteresisC float64 `json:"hysteresis_c,omitempty"`
	// MinFreq is the throttle floor (0 = the controller's default).
	MinFreq float64 `json:"min_freq,omitempty"`
	// DtSeconds is the sample interval (0 = DefaultManagedDt).
	DtSeconds float64 `json:"dt_s,omitempty"`
	// Steps is the sample count (0 = DefaultManagedSteps).
	Steps int `json:"steps,omitempty"`
	// Faults, when set, runs the controller through a faulty sensor.
	Faults *FaultParams `json:"faults,omitempty"`
}

// resolve fills p's zero fields with the run's defaults, giving the
// controller config and transient options the run hands to
// RunManagedLogicThermal.
func (p *ManagedThermalParams) resolve() (dtm.Config, thermal.TransientOptions) {
	cfg := dtm.Config{TmaxC: p.TmaxC, HysteresisC: p.HysteresisC, MinFreq: p.MinFreq}
	if cfg.TmaxC == 0 {
		cfg.TmaxC = DefaultManagedTmaxC
	}
	opt := thermal.TransientOptions{Dt: p.DtSeconds, Steps: p.Steps}
	if opt.Dt == 0 {
		opt.Dt = DefaultManagedDt
	}
	if opt.Steps == 0 {
		opt.Steps = DefaultManagedSteps
	}
	return cfg, opt
}

// CampaignParams says what the full paper sweep covers; every job
// shares the request spec. A campaign request's canonical bytes are
// stackd's cache-key input for the sweep, so equal sweeps must encode
// to equal bytes.
//
//canon:wire
type CampaignParams struct {
	// Benchmarks restricts the Figure 5 replays to the named RMS
	// kernels; empty runs all of them.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// SkipThermal drops the Figure 8 / Figure 11 jobs, leaving a
	// memory-performance-only campaign.
	SkipThermal bool `json:"skip_thermal,omitempty"`
}

// Figure6Result pairs the two panels of Figure 6.
type Figure6Result struct {
	// PowerDensity is the active layer's power density map (W/m²).
	PowerDensity [][]float64
	// Temperature is the solved temperature map (degC).
	Temperature [][]float64
}

var (
	catalogOnce sync.Once
	catalog     []Experiment
	catalogIdx  map[string]int
)

// Experiments returns the catalog in stable registration order.
func Experiments() []Experiment {
	catalogOnce.Do(initCatalog)
	out := make([]Experiment, len(catalog))
	copy(out, catalog)
	return out
}

// ExperimentByName looks up one catalog entry.
func ExperimentByName(name string) (Experiment, bool) {
	catalogOnce.Do(initCatalog)
	i, ok := catalogIdx[name]
	if !ok {
		return Experiment{}, false
	}
	return catalog[i], true
}

// RunExperiment dispatches req to the named experiment — the uniform
// entry point behind diestack, the campaign jobs, and stackd.
func RunExperiment(ctx context.Context, name string, req ExperimentRequest) (ExperimentResult, error) {
	e, ok := ExperimentByName(name)
	if !ok {
		return ExperimentResult{}, fmt.Errorf("core: unknown experiment %q", name)
	}
	return e.Run(ctx, req)
}

// ExperimentValue runs the named experiment through RunExperiment and
// returns its value as T, for programs that call the catalog directly
// (examples/quickstart). With an error it returns whatever value the
// experiment returned alongside (a DTM run that ran away still carries
// its trajectory).
func ExperimentValue[T any](ctx context.Context, name string, spec RunSpec, params any) (T, error) {
	res, err := RunExperiment(ctx, name, ExperimentRequest{Spec: spec, Params: params})
	if err != nil {
		v, _ := res.Value.(T)
		return v, err
	}
	return res.Value.(T), nil
}

// mustExperiment resolves a catalog entry that registration guarantees
// exists; a miss is a programming error.
func mustExperiment(name string) Experiment {
	e, ok := ExperimentByName(name)
	if !ok {
		panic(fmt.Sprintf("core: experiment %q not registered", name))
	}
	return e
}

func initCatalog() {
	catalog = []Experiment{
		{
			Name:      "memory-perf",
			Doc:       "replay one benchmark against one Figure 5 configuration, optionally with stacked-DRAM fault injection",
			NewParams: func() any { return &MemoryPerfParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*MemoryPerfParams)
				o, err := MemoryOptionForCapacity(p.CapacityMB)
				if err != nil {
					return nil, err
				}
				b, err := benchmarkForName(p.Benchmark)
				if err != nil {
					return nil, err
				}
				res, err := figure5(ctx, spec, benchSources(spec, []workload.Benchmark{b}), []MemoryOption{o}, p.Faults.Config())
				if err != nil {
					return nil, err
				}
				return res.Rows[0][0], nil
			},
		},
		{
			Name:      "fig5",
			Doc:       "sweep the RMS benchmarks over every memory configuration (Figure 5), optionally with stacked-DRAM fault injection",
			fn:        []string{"RunFigure5"},
			NewParams: func() any { return &Fig5Params{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*Fig5Params)
				benches, err := benchmarksForNames(p.Benchmarks)
				if err != nil {
					return nil, err
				}
				return figure5(ctx, spec, benchSources(spec, benches), MemoryOptions(), p.Faults.Config())
			},
		},
		{
			Name:      "memory-thermal",
			Doc:       "solve one memory configuration's thermal stack (Figure 8a)",
			fn:        []string{"RunMemoryThermal"},
			NewParams: func() any { return &MemoryThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				o, err := MemoryOptionForCapacity(params.(*MemoryThermalParams).CapacityMB)
				if err != nil {
					return nil, err
				}
				return RunMemoryThermal(ctx, spec, o)
			},
		},
		{
			Name:      "memory-thermal-map",
			Doc:       "solve one memory configuration and return the CPU layer's temperature map (Figure 8b)",
			fn:        []string{"RunMemoryThermalMap"},
			NewParams: func() any { return &MemoryThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				o, err := MemoryOptionForCapacity(params.(*MemoryThermalParams).CapacityMB)
				if err != nil {
					return nil, err
				}
				return RunMemoryThermalMap(ctx, spec, o)
			},
		},
		{
			Name: "fig8",
			Doc:  "solve all four memory configurations (Figure 8a)",
			fn:   []string{"RunFigure8"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunFigure8(ctx, spec)
			},
		},
		{
			Name: "fig6",
			Doc:  "baseline planar power-density and temperature maps (Figure 6)",
			fn:   []string{"Figure6Maps"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				pd, tm, err := Figure6Maps(ctx, spec)
				if err != nil {
					return nil, err
				}
				return Figure6Result{PowerDensity: pd, Temperature: tm}, nil
			},
		},
		{
			Name:      "fig3",
			Doc:       "peak temperature vs one layer's conductivity on the stacked microprocessor (Figure 3)",
			fn:        []string{"RunFigure3"},
			NewParams: func() any { return &Fig3Params{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*Fig3Params)
				layer, err := sweepLayerForSlug(p.Layer)
				if err != nil {
					return nil, err
				}
				return RunFigure3(ctx, spec, layer, p.Conductivities)
			},
		},
		{
			Name:      "logic-thermal",
			Doc:       "solve one Figure 11 bar (planar, 3d, or 3d-worstcase)",
			fn:        []string{"RunLogicThermal"},
			NewParams: func() any { return &LogicThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				o, err := LogicOptionForSlug(params.(*LogicThermalParams).Variant)
				if err != nil {
					return nil, err
				}
				return RunLogicThermal(ctx, spec, o)
			},
		},
		{
			Name: "fig11",
			Doc:  "solve all three Logic+Logic bars (Figure 11)",
			fn:   []string{"RunFigure11"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunFigure11(ctx, spec)
			},
		},
		{
			Name:      "table4",
			Doc:       "per-functionality pipeline gains of the 3D fold (Table 4)",
			fn:        []string{"RunTable4"},
			NewParams: func() any { return &Table4Params{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				return RunTable4(ctx, spec, params.(*Table4Params).Instructions)
			},
		},
		{
			Name: "table5",
			Doc:  "voltage/frequency scaling scenarios on the measured 3D thermal response (Table 5)",
			fn:   []string{"RunTable5"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunTable5(ctx, spec)
			},
		},
		{
			Name: "power-derivation",
			Doc:  "derive the Logic+Logic interconnect power saving from the two floorplans",
			fn:   []string{"RunPowerDerivation"},
			Runner: func(ctx context.Context, _ RunSpec, _ any) (any, error) {
				return RunPowerDerivation(ctx)
			},
		},
		{
			Name: "wire-derivation",
			Doc:  "derive the critical-path wire pipe stages from the planar and folded floorplans",
			fn:   []string{"RunWireDerivation"},
			Runner: func(ctx context.Context, _ RunSpec, _ any) (any, error) {
				return RunWireDerivation(ctx)
			},
		},
		{
			Name:      "multi-die",
			Doc:       "thermal ladder beyond the paper's two-die limit (CPU + n DRAM dies)",
			fn:        []string{"RunMultiDieSweep"},
			NewParams: func() any { return &MultiDieParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				return RunMultiDieSweep(ctx, spec, params.(*MultiDieParams).MaxDies)
			},
		},
		{
			Name: "autofold",
			Doc:  "automatic place-observe-repair fold vs the hand-crafted Figure 10 fold",
			fn:   []string{"RunAutoFold"},
			Runner: func(ctx context.Context, spec RunSpec, _ any) (any, error) {
				return RunAutoFold(ctx, spec)
			},
		},
		{
			Name:      "managed-logic-thermal",
			Doc:       "closed-loop DTM on a logic stack, optionally through a faulty sensor",
			fn:        []string{"RunManagedLogicThermal"},
			NewParams: func() any { return &ManagedThermalParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				p := params.(*ManagedThermalParams)
				o, err := LogicOptionForSlug(p.Variant)
				if err != nil {
					return nil, err
				}
				cfg, opt := p.resolve()
				return RunManagedLogicThermal(ctx, spec, o, cfg, p.Faults.Config(), opt)
			},
		},
		{
			Name:      "campaign",
			Doc:       "the full paper sweep as a supervised campaign (one Figure 5 job per benchmark, one job per thermal solve)",
			fn:        []string{"RunCampaign", "CampaignJobs"},
			NewParams: func() any { return &CampaignParams{} },
			Runner: func(ctx context.Context, spec RunSpec, params any) (any, error) {
				return RunCampaign(ctx, spec, *params.(*CampaignParams), harness.Config{})
			},
		},
	}
	catalogIdx = make(map[string]int, len(catalog))
	for i, e := range catalog {
		catalogIdx[e.Name] = i
	}
}
