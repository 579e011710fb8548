package core

import (
	"context"
	"fmt"

	"diestack/internal/harness"
)

// This file defines the paper's full evaluation as a supervised
// campaign: every benchmark's Figure 5 row, every Figure 8 thermal
// solve, and every Figure 11 logic solve become independent harness
// jobs, so one hung replay or diverged solve cannot take down the
// sweep.

// CampaignJobs expands a campaign request into the job list: one fig5
// job per benchmark named "fig5/<bench>", which generates and filters
// the trace once and replays it on all four options, one per option
// thermal solve named "fig8/thermal/<cap>MB", and one per logic option
// named "fig11/logic/<variant>". Every job shares spec. Job names are
// stable so manifests from identical requests are comparable.
func CampaignJobs(spec RunSpec, p CampaignParams) ([]harness.Job, error) {
	benches, err := benchmarksForNames(p.Benchmarks)
	if err != nil {
		return nil, err
	}

	// Every job dispatches through the experiment catalog — the same
	// entry-point surface the CLIs and the stackd service use — and
	// unwraps the result value, so a manifest entry holds the
	// experiment's native result.
	catalogJob := func(name, experiment string, params any) harness.Job {
		exp := mustExperiment(experiment)
		return harness.Job{
			Name: name,
			Run: func(ctx context.Context) (any, error) {
				res, err := exp.Run(ctx, ExperimentRequest{Spec: spec, Params: params})
				if err != nil {
					return nil, err
				}
				return res.Value, nil
			},
		}
	}
	var jobs []harness.Job
	for _, b := range benches {
		jobs = append(jobs, catalogJob("fig5/"+b.Name, "fig5",
			&Fig5Params{Benchmarks: []string{b.Name}}))
	}
	if !p.SkipThermal {
		for _, o := range MemoryOptions() {
			jobs = append(jobs, catalogJob(
				fmt.Sprintf("fig8/thermal/%dMB", o.CapacityMB()),
				"memory-thermal",
				&MemoryThermalParams{CapacityMB: o.CapacityMB()}))
		}
		for _, o := range LogicOptions() {
			jobs = append(jobs, catalogJob(
				"fig11/logic/"+logicSlug(o),
				"logic-thermal",
				&LogicThermalParams{Variant: logicSlug(o)}))
		}
	}
	return jobs, nil
}

// Slug returns the option's job-name/wire spelling (planar, 3d,
// 3d-worstcase) — the inverse of LogicOptionForSlug.
func (o LogicOption) Slug() string { return logicSlug(o) }

// logicSlug names a logic option in job-name form.
func logicSlug(o LogicOption) string {
	switch o {
	case LogicPlanar:
		return "planar"
	case Logic3D:
		return "3d"
	case Logic3DWorst:
		return "3d-worstcase"
	default:
		return fmt.Sprintf("option-%d", int(o))
	}
}

// RunCampaign expands the request and executes it under the harness.
// When spec.Obs is set and cfg.Obs is not, the harness reports into
// the same registry as the jobs.
func RunCampaign(ctx context.Context, spec RunSpec, p CampaignParams, cfg harness.Config) (*harness.Manifest, error) {
	jobs, err := CampaignJobs(spec, p)
	if err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = spec.Obs
	}
	return harness.Run(ctx, cfg, jobs)
}
