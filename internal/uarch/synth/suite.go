package synth

import (
	"context"
	"fmt"

	"diestack/internal/fanout"
	"diestack/internal/uarch"
)

// SuiteResult is the weighted aggregate over all application classes.
type SuiteResult struct {
	// IPC is the weight-averaged instructions per cycle.
	IPC float64
	// PerProfile holds each class's result in Profiles() order.
	PerProfile []uarch.Result
}

// RunSuite executes every profile on the pipeline configuration and
// returns the weighted aggregate (the stand-in for the paper's 650+
// trace average). n is the per-profile instruction count.
func RunSuite(ctx context.Context, cfg uarch.Config, seed uint64, n int) (SuiteResult, error) {
	progs, err := programs(seed, n)
	if err != nil {
		return SuiteResult{}, err
	}
	return runPrograms(ctx, cfg, progs)
}

// programs generates every profile's n-instruction program, in
// Profiles() order. uarch.Run only reads a program, so one set serves
// any number of configurations.
func programs(seed uint64, n int) ([][]uarch.Inst, error) {
	profiles := Profiles()
	progs := make([][]uarch.Inst, len(profiles))
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		progs[i] = p.Generate(seed, n)
	}
	return progs, nil
}

// runPrograms runs progs (from programs) on cfg and weights the
// results into the suite aggregate.
func runPrograms(ctx context.Context, cfg uarch.Config, progs [][]uarch.Inst) (SuiteResult, error) {
	profiles := Profiles()
	out := SuiteResult{PerProfile: make([]uarch.Result, len(profiles))}
	sumW := 0.0
	for i, p := range profiles {
		res, err := uarch.Run(ctx, cfg, progs[i])
		if err != nil {
			return SuiteResult{}, fmt.Errorf("synth: %s: %w", p.Name, err)
		}
		out.PerProfile[i] = res
		out.IPC += p.Weight * res.IPC
		sumW += p.Weight
	}
	out.IPC /= sumW
	return out, nil
}

// Table4Group is one functionality row of the paper's Table 4.
type Table4Group struct {
	Name string
	// Fold enables just this group's stage elimination.
	Fold uarch.Fold
	// PaperStagesPct and PaperGainPct are the paper's reported values,
	// for side-by-side reporting ("Variable" is recorded as 0).
	PaperStagesPct, PaperGainPct float64
}

// Table4Groups returns the paper's ten functionality groups in table
// order.
func Table4Groups() []Table4Group {
	return []Table4Group{
		{"Front-end pipeline", uarch.Fold{FrontEnd: true}, 12.5, 0.2},
		{"Trace cache read", uarch.Fold{TraceCache: true}, 20, 0.33},
		{"Rename allocation", uarch.Fold{Rename: true}, 25, 0.66},
		{"FP inst. latency", uarch.Fold{FPLatency: true}, 0, 4.0},
		{"Int register file read", uarch.Fold{IntRF: true}, 25, 0.5},
		{"Data cache read", uarch.Fold{DCache: true}, 25, 1.5},
		{"Instruction loop", uarch.Fold{Loop: true}, 17, 1.0},
		{"Retire to de-allocation", uarch.Fold{RetireDealc: true}, 20, 1.0},
		{"FP load latency", uarch.Fold{FPLoad: true}, 35, 2.0},
		{"Store lifetime", uarch.Fold{StoreLife: true}, 30, 3.0},
	}
}

// Table4Row is one measured row.
type Table4Row struct {
	Name           string
	StagesPct      float64 // % of the group's planar stages removed
	GainPct        float64 // measured performance gain
	PaperStagesPct float64
	PaperGainPct   float64
}

// Table4 measures the per-group and total performance gains of the 3D
// fold, reproducing the paper's Table 4. n is the per-profile
// instruction count (100k is enough for stable percentages). The
// profile programs are generated once and shared by the twelve
// configurations — the base, the ten group folds and the full fold —
// which run side by side on up to GOMAXPROCS goroutines, each suite
// into its own slot, so the result does not depend on the schedule.
// On failure the error of the first failing configuration in that
// order is returned.
func Table4(ctx context.Context, cfg uarch.Config, seed uint64, n int) (rows []Table4Row, totalGainPct float64, err error) {
	progs, err := programs(seed, n)
	if err != nil {
		return nil, 0, err
	}
	groups := Table4Groups()
	cfgs := []uarch.Config{cfg}
	for _, g := range groups {
		cfgs = append(cfgs, cfg.Apply(g.Fold))
	}
	cfgs = append(cfgs, cfg.Apply(uarch.FullFold()))
	suites := make([]SuiteResult, len(cfgs))
	err = fanout.ForEach(len(cfgs), len(cfgs), func(i int) error {
		var err error
		suites[i], err = runPrograms(ctx, cfgs[i], progs)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	base := suites[0]
	for j, g := range groups {
		folded := suites[1+j]
		removed, _ := cfg.StagesEliminated(g.Fold)
		// The group's own planar stage count for the percent column.
		groupTotal := groupStageCount(cfg, g.Fold)
		pct := 0.0
		if groupTotal > 0 {
			pct = float64(removed) / float64(groupTotal) * 100
		}
		rows = append(rows, Table4Row{
			Name:           g.Name,
			StagesPct:      pct,
			GainPct:        (folded.IPC/base.IPC - 1) * 100,
			PaperStagesPct: g.PaperStagesPct,
			PaperGainPct:   g.PaperGainPct,
		})
	}
	full := suites[len(suites)-1]
	return rows, (full.IPC/base.IPC - 1) * 100, nil
}

// groupStageCount returns the planar stage count of the group a fold
// touches (the denominator of the "% of stages eliminated" column).
func groupStageCount(c uarch.Config, f uarch.Fold) int {
	switch {
	case f.FrontEnd:
		return c.FrontEndStages
	case f.TraceCache:
		return c.TraceCacheStages
	case f.Rename:
		return c.RenameStages
	case f.FPLatency:
		return c.FPLatency
	case f.IntRF:
		return c.IntRFStages
	case f.DCache:
		return c.DCacheStages
	case f.Loop:
		return c.LoopStages
	case f.RetireDealc:
		return c.RetireDeallocStages
	case f.FPLoad:
		return c.FPLoadExtra
	case f.StoreLife:
		return c.StoreLifetime
	default:
		return 0
	}
}
