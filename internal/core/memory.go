// Package core ties the substrates together into the paper's two
// studies: Memory+Logic stacking (Section 3 — a large SRAM or DRAM
// cache stacked on a dual-core die) and Logic+Logic stacking
// (Section 4 — a deeply pipelined microprocessor folded onto two
// dies), each evaluated for performance, power, and temperature.
//
// Every table and figure of the paper's evaluation is regenerated
// through this package; see DESIGN.md for the experiment index.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"diestack/internal/fanout"
	"diestack/internal/fault"
	"diestack/internal/floorplan"
	"diestack/internal/memhier"
	"diestack/internal/thermal"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

// MemoryOption is one of the four Memory+Logic configurations of
// Figure 5 / Figure 7.
type MemoryOption int

const (
	// Planar4MB is the unmodified baseline die (Figure 7a).
	Planar4MB MemoryOption = iota
	// Stacked12MB adds an 8 MB SRAM die (Figure 7b).
	Stacked12MB
	// Stacked32MB replaces the L2 with a stacked 32 MB DRAM (Figure 7c).
	Stacked32MB
	// Stacked64MB stacks a 64 MB DRAM on the unchanged die (Figure 7d).
	Stacked64MB
)

// MemoryOptions returns all four options in paper order.
func MemoryOptions() []MemoryOption {
	return []MemoryOption{Planar4MB, Stacked12MB, Stacked32MB, Stacked64MB}
}

// String names the option as in the paper's figures.
func (o MemoryOption) String() string {
	switch o {
	case Planar4MB:
		return "2D 4MB"
	case Stacked12MB:
		return "3D 12MB"
	case Stacked32MB:
		return "3D 32MB"
	case Stacked64MB:
		return "3D 64MB"
	default:
		return fmt.Sprintf("MemoryOption(%d)", int(o))
	}
}

// CapacityMB returns the option's last-level capacity.
func (o MemoryOption) CapacityMB() int {
	switch o {
	case Planar4MB:
		return 4
	case Stacked12MB:
		return 12
	case Stacked32MB:
		return 32
	case Stacked64MB:
		return 64
	default:
		return 0
	}
}

// HierarchyConfig returns the option's memory hierarchy (Table 3).
func (o MemoryOption) HierarchyConfig() (memhier.Config, error) {
	cfg, ok := memhier.ConfigByCapacity(o.CapacityMB())
	if !ok {
		return memhier.Config{}, fmt.Errorf("core: unknown memory option %d", int(o))
	}
	return cfg, nil
}

// Floorplan returns the option's physical design (Figure 7).
func (o MemoryOption) Floorplan() (*floorplan.Floorplan, error) {
	switch o {
	case Planar4MB:
		return floorplan.Core2DuoPlanar(), nil
	case Stacked12MB:
		return floorplan.Core2DuoStacked12MB(), nil
	case Stacked32MB:
		return floorplan.Core2DuoStacked32MB(), nil
	case Stacked64MB:
		return floorplan.Core2DuoStacked64MB(), nil
	default:
		return nil, fmt.Errorf("core: unknown memory option %d", int(o))
	}
}

// stackedDie returns the second die's thermal spec builder.
func (o MemoryOption) stackedDie() func(*thermal.PowerMap) thermal.DieSpec {
	if o == Stacked12MB {
		return thermal.SRAMDie
	}
	return thermal.DRAMDie
}

// buildStack assembles (without solving) the option's thermal stack at
// the given lateral resolution (<= 0 selects the default), returning
// the floorplan alongside.
func (o MemoryOption) buildStack(grid int) (*thermal.Stack, *floorplan.Floorplan, error) {
	fp, err := o.Floorplan()
	if err != nil {
		return nil, nil, err
	}
	nx, ny := gridOrDefault(grid)
	opt := thermal.StackOptions{Nx: nx, Ny: ny}
	pkgW, pkgH := thermal.DefaultPackageW, thermal.DefaultPackageH
	cpuMap := fp.PowerMapCentered(0, nx, ny, pkgW, pkgH)

	if fp.Dies == 1 {
		return thermal.PlanarStack(fp.DieW, fp.DieH, cpuMap, opt), fp, nil
	}
	memMap := fp.PowerMapCentered(1, nx, ny, pkgW, pkgH)
	return thermal.ThreeDStack(fp.DieW, fp.DieH,
		thermal.LogicDie(cpuMap), o.stackedDie()(memMap), opt), fp, nil
}

// stackKey names the option's stack shape for workspace pooling.
func (o MemoryOption) stackKey(grid int) string {
	nx, _ := gridOrDefault(grid)
	return fmt.Sprintf("mem/%dMB/g%d", o.CapacityMB(), nx)
}

// MemoryPerf is one bar (and bandwidth point) of Figure 5.
type MemoryPerf struct {
	Benchmark string
	Option    MemoryOption
	// CPMA is cycles per memory access.
	CPMA float64
	// BandwidthGBs is the off-die bus bandwidth.
	BandwidthGBs float64
	// BusPowerW prices that bandwidth at 20 mW/Gb/s.
	BusPowerW float64
	// OffDieBytes is the total bus traffic.
	OffDieBytes uint64
	// Refs is the number of memory references replayed.
	Refs uint64
	// Faults holds the injected-fault and recovery counters (all-zero
	// when injection is disabled; see Fig5Params.Faults).
	Faults fault.Stats
	// DRAMRemapped counts stacked-DRAM accesses redirected off dead
	// banks; DRAMFaultCycles is latency added by degraded via lanes.
	DRAMRemapped    uint64
	DRAMFaultCycles int64
}

// ReplayTrace runs recorded trace records, such as a trace file's,
// over every configuration with fc injected: the Figure 5 sweep's
// one-trace case for a trace that is not a catalog benchmark, so the
// records go through the L1 front end once. name labels the rows and
// errors; spec.Obs instruments the replays.
func ReplayTrace(ctx context.Context, spec RunSpec, name string, recs []trace.Record, fc fault.Config) ([]MemoryPerf, error) {
	src := traceSource{name, func(*workload.Blocks) memhier.SizedStream { return trace.NewSliceStream(recs) }}
	res, err := figure5(ctx, spec, []traceSource{src}, MemoryOptions(), fc)
	if err != nil {
		return nil, err
	}
	return res.Rows[0], nil
}

// Figure5Result holds the full sweep: rows[benchmark][option].
type Figure5Result struct {
	Benchmarks []string
	Options    []MemoryOption
	Rows       [][]MemoryPerf
}

// RunFigure5 sweeps every RMS benchmark over every configuration —
// the paper's Figure 5 — with no fault injection.
func RunFigure5(ctx context.Context, spec RunSpec) (*Figure5Result, error) {
	return figure5(ctx, spec, benchSources(spec, workload.All()), MemoryOptions(), fault.Config{})
}

// traceSource is one row of the Figure 5 sweep: its name and how to
// open its trace, given the free list of emitter blocks to generate it
// from and return them to (nil: none).
type traceSource struct {
	name string
	open func(free *workload.Blocks) memhier.SizedStream
}

// benchSources returns one row per benchmark, each streaming the
// benchmark's trace at spec's seed and scale.
func benchSources(spec RunSpec, benches []workload.Benchmark) []traceSource {
	rows := make([]traceSource, len(benches))
	for k, b := range benches {
		rows[k] = traceSource{b.Name, func(free *workload.Blocks) memhier.SizedStream {
			return b.Stream(spec.Seed, spec.Scale, free)
		}}
	}
	return rows
}

// figure5 sweeps the rows' traces over opts with fc injected into
// every option's hierarchy. It is the one Figure 5 composition:
// RunFigure5, ReplayTrace and the fig5 and memory-perf experiments all
// run it. Every option's configuration is validated before the first
// trace is opened. All options share their L1s, so each row's trace is
// opened and streamed through the L1 front end once
// (memhier.FilterL1), on a producer goroutine, in order. A
// benchmark's records are never collected. Each trace but the last
// hands its emitter blocks, once read, to the next: the producer
// generates trace k+1 from them as soon as trace k is filtered, then
// drops the blocks it did not use. The last trace's stream drops each
// block once read, so a one-row sweep's blocks shrink as its log
// grows. The (row, option) replays form one list in order that up to
// min(GOMAXPROCS, 4) workers take from, each replay on a simulator no
// other replay holds meanwhile, reading the shared, read-only log; each
// equals a full memhier Run of the trace, bit for bit. Each option
// keeps one idle simulator for the length of the call (idleSims), so
// later rows reuse it after a Reset. There is no join between rows:
// trace k+1 is filtered while trace k's options replay. Two
// tokens, each a log or nil, keep at most two logs alive: a trace's
// last replay returns its log as the token, and the producer filters a
// later trace into it. Results do not depend on the schedule. On failure
// the error of the first failing (row, option) in order is returned;
// cancellation aborts mid-sweep with the context's error.
func figure5(ctx context.Context, spec RunSpec, rows []traceSource, opts []MemoryOption, fc fault.Config) (*Figure5Result, error) {
	cfgs, err := figure5Configs(opts, fc)
	if err != nil {
		return nil, err
	}
	out := &Figure5Result{Options: opts, Rows: make([][]MemoryPerf, len(rows))}
	traces := make([]figure5Trace, len(rows))
	for k, src := range rows {
		out.Benchmarks = append(out.Benchmarks, src.name)
		out.Rows[k] = make([]MemoryPerf, len(opts))
		traces[k].ready = make(chan struct{})
		traces[k].left.Store(int32(len(opts)))
	}

	// genCtx is canceled once the replays have returned, so a producer
	// still building a trace that no replay will read stops early.
	genCtx, cancelGen := context.WithCancel(ctx)
	tokens := make(chan *memhier.L1Log, 2)
	tokens <- nil
	tokens <- nil
	idle := idleSims{cfgs: cfgs, sims: make([]*memhier.Simulator, len(cfgs))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var free workload.Blocks
		for k, row := range rows {
			err := genCtx.Err()
			if err == nil {
				blocks := &free
				if k == len(rows)-1 {
					blocks = nil
				}
				src := row.open(blocks)
				free.Drop()
				select {
				case lg := <-tokens:
					traces[k].lg, err = memhier.FilterL1(genCtx, cfgs[0], src, lg)
				case <-genCtx.Done():
					err = genCtx.Err()
				}
			}
			if err != nil {
				err = fmt.Errorf("core: %s on %s: %w", row.name, opts[0], err)
				for j := k; j < len(traces); j++ {
					traces[j].err = err
					close(traces[j].ready)
				}
				return
			}
			close(traces[k].ready)
		}
	}()

	err = fanout.ForEach(len(rows)*len(opts), len(opts), func(t int) error {
		k, i := t/len(opts), t%len(opts)
		tr := &traces[k]
		<-tr.ready
		if tr.err != nil {
			return tr.err
		}
		lg := tr.lg
		defer func() {
			if tr.left.Add(-1) == 0 {
				tr.lg = nil
				tokens <- lg
			}
		}()
		sim, err := idle.take(i)
		if err != nil {
			return err
		}
		res, err := sim.Replay(ctx, lg, spec.Obs)
		idle.put(i, sim)
		if err != nil {
			return fmt.Errorf("core: %s on %s: %w", rows[k].name, opts[i], err)
		}
		out.Rows[k][i] = memoryPerfFrom(rows[k].name, opts[i], res)
		return nil
	})
	cancelGen()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// idleSims holds at most one idle simulator per option of a figure5
// call. A replay takes its option's simulator, or builds one when
// the slot is empty, and puts it back afterwards unless another replay
// of the option refilled the slot first. One slot, not a free list,
// keeps the tag arrays of concurrent replays from staying live once
// they finish.
type idleSims struct {
	cfgs []memhier.Config
	mu   sync.Mutex
	sims []*memhier.Simulator
}

// take returns an option's idle simulator, Reset, or a new one.
func (p *idleSims) take(i int) (*memhier.Simulator, error) {
	sim := p.claim(i)
	if sim == nil {
		return memhier.New(p.cfgs[i])
	}
	sim.Reset()
	return sim, nil
}

// claim empties an option's slot and returns what it held.
func (p *idleSims) claim(i int) *memhier.Simulator {
	p.mu.Lock()
	defer p.mu.Unlock()
	sim := p.sims[i]
	p.sims[i] = nil
	return sim
}

// put returns a simulator to its option's slot when the slot is
// empty, and drops it otherwise.
func (p *idleSims) put(i int, sim *memhier.Simulator) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sims[i] == nil {
		p.sims[i] = sim
	}
}

// figure5Configs returns each option's hierarchy with fc injected,
// every one validated.
func figure5Configs(opts []MemoryOption, fc fault.Config) ([]memhier.Config, error) {
	cfgs := make([]memhier.Config, len(opts))
	for i, o := range opts {
		cfg, err := o.HierarchyConfig()
		if err != nil {
			return nil, err
		}
		cfg.Faults = fc
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", o, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// memoryPerfFrom maps a hierarchy result onto the Figure 5 row shape.
func memoryPerfFrom(bench string, o MemoryOption, res memhier.Result) MemoryPerf {
	return MemoryPerf{
		Benchmark:       bench,
		Option:          o,
		CPMA:            res.CPMA,
		BandwidthGBs:    res.BandwidthGBs,
		BusPowerW:       res.BusPowerW,
		OffDieBytes:     res.OffDieBytes,
		Refs:            res.Refs,
		Faults:          res.Faults,
		DRAMRemapped:    res.DRAMCache.Remapped,
		DRAMFaultCycles: res.DRAMCache.FaultCycles,
	}
}

// figure5Trace is one benchmark's L1 log on its way through
// figure5: the producer sets lg or err, then closes ready; the
// replay that brings left to zero drops lg and returns it as the
// trace's token.
type figure5Trace struct {
	ready chan struct{}
	lg    *memhier.L1Log
	err   error
	left  atomic.Int32
}

// Headline summarizes Figure 5 the way the paper's abstract does.
type Headline struct {
	// AvgCPMAReductionPct is the mean CPMA reduction of the 32 MB
	// stack vs the baseline (paper: 13%).
	AvgCPMAReductionPct float64
	// MaxCPMAReductionPct is the best single benchmark (paper: ~55%),
	// negative when no benchmark improves.
	MaxCPMAReductionPct float64
	// MaxReductionBenchmark names it.
	MaxReductionBenchmark string
	// TrafficReductionFactor is baseline bus bytes over 32 MB bus
	// bytes, averaged (paper: ~3x).
	TrafficReductionFactor float64
	// BusPowerSavingW is the average bus power saved (paper: ~0.5 W).
	BusPowerSavingW float64
}

// Headline computes the abstract's aggregate claims from a Figure 5
// sweep.
func (f *Figure5Result) Headline() Headline {
	baseIdx, bigIdx := -1, -1
	for i, o := range f.Options {
		switch o {
		case Planar4MB:
			baseIdx = i
		case Stacked32MB:
			bigIdx = i
		}
	}
	var h Headline
	if baseIdx < 0 || bigIdx < 0 || len(f.Rows) == 0 {
		return h
	}
	var sumRed, sumFactor, sumSaving float64
	for i, row := range f.Rows {
		base, big := row[baseIdx], row[bigIdx]
		red := (1 - big.CPMA/base.CPMA) * 100
		sumRed += red
		if i == 0 || red > h.MaxCPMAReductionPct {
			h.MaxCPMAReductionPct = red
			h.MaxReductionBenchmark = f.Benchmarks[i]
		}
		if big.OffDieBytes > 0 {
			sumFactor += float64(base.OffDieBytes) / float64(big.OffDieBytes)
		}
		sumSaving += base.BusPowerW - big.BusPowerW
	}
	n := float64(len(f.Rows))
	h.AvgCPMAReductionPct = sumRed / n
	h.TrafficReductionFactor = sumFactor / n
	h.BusPowerSavingW = sumSaving / n
	return h
}

// MemoryThermal is one bar of Figure 8(a).
type MemoryThermal struct {
	Option MemoryOption
	// PeakC is the stack's hottest temperature.
	PeakC float64
	// MinC is the coolest spot on the CPU die.
	MinC float64
	// TotalPowerW is the configuration's power (Figure 7).
	TotalPowerW float64
}

// RunMemoryThermal solves the option's thermal stack (Figure 8).
// spec.Grid <= 0 selects the default resolution. A solver that fails
// to converge surfaces
// thermal.ErrNotConverged (or thermal.ErrDiverged) wrapped with the
// option it was solving.
func RunMemoryThermal(ctx context.Context, spec RunSpec, o MemoryOption) (MemoryThermal, error) {
	stack, fp, err := o.buildStack(spec.Grid)
	if err != nil {
		return MemoryThermal{}, err
	}
	field, err := solveStack(ctx, spec, o.stackKey(spec.Grid), stack)
	if err != nil {
		return MemoryThermal{}, fmt.Errorf("core: thermal solve for %s: %w", o, err)
	}
	die := thermal.CenteredDie(stack.Width, stack.Height, fp.DieW, fp.DieH)
	li := stack.LayerIndex("active")
	if li < 0 {
		li = stack.LayerIndex("active #1")
	}
	return MemoryThermal{
		Option:      o,
		PeakC:       field.Peak(),
		MinC:        field.LayerPeakMinIn(li, die),
		TotalPowerW: fp.TotalPower(),
	}, nil
}

// RunMemoryThermalMap solves one option's stack and returns the CPU
// active layer's lateral temperature map — Figure 8(b) is this map for
// the 32 MB configuration. spec.Grid <= 0 selects the default
// resolution.
func RunMemoryThermalMap(ctx context.Context, spec RunSpec, o MemoryOption) ([][]float64, error) {
	stack, _, err := o.buildStack(spec.Grid)
	if err != nil {
		return nil, err
	}
	field, err := solveStack(ctx, spec, o.stackKey(spec.Grid), stack)
	if err != nil {
		return nil, fmt.Errorf("core: thermal solve for %s: %w", o, err)
	}
	li := stack.LayerIndex("active")
	if li < 0 {
		li = stack.LayerIndex("active #1")
	}
	return field.LayerMap(li), nil
}

// RunFigure8 solves all four options (Figure 8a).
func RunFigure8(ctx context.Context, spec RunSpec) ([]MemoryThermal, error) {
	out := make([]MemoryThermal, 0, 4)
	for _, o := range MemoryOptions() {
		r, err := RunMemoryThermal(ctx, spec, o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func gridOrDefault(grid int) (int, int) {
	if grid <= 0 {
		return 64, 64
	}
	return grid, grid
}
