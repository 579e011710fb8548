package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"diestack/internal/floorplan"
	"diestack/internal/harness"
	"diestack/internal/thermal"
)

func TestCampaignJobsNames(t *testing.T) {
	jobs, err := CampaignJobs(RunSpec{Scale: 0.05}, CampaignParams{Benchmarks: []string{"gauss"}})
	if err != nil {
		t.Fatal(err)
	}
	// 1 Figure 5 row + 4 memory thermal + 3 logic thermal.
	if len(jobs) != 8 {
		t.Fatalf("want 8 jobs, got %d", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		seen[j.Name] = true
	}
	for _, want := range []string{"fig5/gauss", "fig8/thermal/64MB", "fig11/logic/planar"} {
		if !seen[want] {
			t.Errorf("missing job %s (have %v)", want, seen)
		}
	}
	if _, err := CampaignJobs(RunSpec{}, CampaignParams{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := CampaignJobs(RunSpec{}, CampaignParams{Benchmarks: []string{"gauss", "gauss"}}); err == nil {
		t.Fatal("repeated benchmark accepted")
	}
}

// TestSupervisedCampaignAcceptance is the issue's acceptance scenario:
// a campaign containing a panicking job, a deadline-exceeded job, and
// a forcibly diverging solve must complete, record those three
// failures with their causes, and leave every healthy job's result
// identical to an unsupervised run.
func TestSupervisedCampaignAcceptance(t *testing.T) {
	const (
		seed  = 1
		scale = 0.05
		grid  = 12
	)
	jobs, err := CampaignJobs(RunSpec{Seed: seed, Scale: scale, Grid: grid},
		CampaignParams{Benchmarks: []string{"gauss"}, SkipThermal: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs,
		harness.Job{Name: "inject/panic", Run: func(context.Context) (any, error) {
			panic("injected crash")
		}},
		harness.Job{Name: "inject/deadline", Timeout: 20 * time.Millisecond,
			Run: func(ctx context.Context) (any, error) {
				<-ctx.Done() // a hung replay
				return nil, ctx.Err()
			}},
		harness.Job{Name: "inject/divergence", Run: func(ctx context.Context) (any, error) {
			// Omega=5 genuinely diverges; recovery disabled, so the
			// typed divergence error must surface in the manifest.
			fp := floorplan.Core2DuoPlanar()
			pm := fp.PowerMapCentered(0, grid, grid, thermal.DefaultPackageW, thermal.DefaultPackageH)
			stack := thermal.PlanarStack(fp.DieW, fp.DieH, pm, thermal.StackOptions{Nx: grid, Ny: grid})
			f, err := thermal.Solve(ctx, stack, thermal.SolveOptions{Omega: 5, MaxRecoveries: -1})
			if err != nil {
				return nil, err
			}
			return f.Peak(), nil
		}},
	)

	m, err := harness.Run(context.Background(), harness.Config{
		Workers: 4, Sleep: func(time.Duration) {},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != len(jobs) {
		t.Fatalf("manifest has %d entries for %d jobs", len(m.Jobs), len(jobs))
	}

	// The three injected failures are recorded with their causes.
	p, _ := m.Result("inject/panic")
	if p.Status != harness.StatusPanicked || !strings.Contains(p.Error, "injected crash") || p.Stack == "" {
		t.Fatalf("panic not recorded with cause and stack: %+v", p)
	}
	d, _ := m.Result("inject/deadline")
	if d.Status != harness.StatusTimeout {
		t.Fatalf("deadline job not recorded as timeout: %+v", d)
	}
	v, _ := m.Result("inject/divergence")
	if v.Status != harness.StatusFailed || !strings.Contains(v.Error, "diverged") {
		t.Fatalf("divergence not recorded with its typed cause: %+v", v)
	}

	// The healthy fig5 job's four cells are identical to unsupervised
	// memory-perf runs, which filter the trace through the L1s once per
	// cell instead of once per row.
	r, found := m.Result("fig5/gauss")
	if !found || r.Status != harness.StatusOK {
		t.Fatalf("fig5/gauss: %+v", r)
	}
	row, ok := r.Value.(*Figure5Result)
	if !ok || len(row.Rows) != 1 || len(row.Rows[0]) != len(MemoryOptions()) {
		t.Fatalf("fig5/gauss value: %T %+v", r.Value, r.Value)
	}
	for i, o := range MemoryOptions() {
		want, err := RunExperiment(context.Background(), "memory-perf", ExperimentRequest{
			Spec:   RunSpec{Seed: seed, Scale: scale},
			Params: &MemoryPerfParams{CapacityMB: o.CapacityMB(), Benchmark: "gauss"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := row.Rows[0][i]; !reflect.DeepEqual(got, want.Value) {
			t.Errorf("%s: supervised result differs from unsupervised:\nsupervised:   %+v\nunsupervised: %+v",
				o, got, want.Value)
		}
	}
}

// TestCampaignScheduleIndependent runs the reduced-scale gauss sweep
// of the campaign CLI golden on one worker and on four: the manifests
// must be byte-identical, whatever order the jobs finished in.
func TestCampaignScheduleIndependent(t *testing.T) {
	spec := RunSpec{Seed: 1, Scale: 0.05, Grid: 16}
	sweep := CampaignParams{Benchmarks: []string{"gauss"}}
	manifest := func(workers int) []byte {
		m, err := RunCampaign(context.Background(), spec, sweep, harness.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if m.OK != len(m.Jobs) {
			t.Fatalf("workers %d: %d of %d jobs ok", workers, m.OK, len(m.Jobs))
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, pooled := manifest(1), manifest(4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("manifest depends on the schedule:\nworkers 1:\n%s\nworkers 4:\n%s", serial, pooled)
	}
}

// TestThermalErrorSurfacedThroughCore checks the satellite contract:
// a solver that cannot converge reaches the core caller as a typed,
// matchable error instead of a silently accepted partial field.
func TestThermalErrorSurfacedThroughCore(t *testing.T) {
	fp := floorplan.Core2DuoPlanar()
	pm := fp.PowerMapCentered(0, 8, 8, thermal.DefaultPackageW, thermal.DefaultPackageH)
	stack := thermal.PlanarStack(fp.DieW, fp.DieH, pm, thermal.StackOptions{Nx: 8, Ny: 8})
	_, err := thermal.Solve(context.Background(), stack, thermal.SolveOptions{MaxCycles: 1, Tolerance: 1e-300})
	if !errors.Is(err, thermal.ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	var ce *thermal.ConvergenceError
	if !errors.As(err, &ce) || ce.Sweeps != 1 {
		t.Fatalf("typed error should carry the sweep count: %v", err)
	}
}

// TestCampaignPayloadRoundTrip carries a non-default campaign request
// through its canonical bytes: the encoded request decodes, as stackd
// decodes a body, to the same request, and equal requests encode to
// equal bytes (stackd hashes them into its cache key). Rejected
// payloads are campaign rows of TestDecodeRequestRejects.
func TestCampaignPayloadRoundTrip(t *testing.T) {
	e := mustExperiment("campaign")
	req := ExperimentRequest{Spec: RunSpec{Seed: 7, Scale: 0.05, Grid: 16},
		Params: &CampaignParams{Benchmarks: []string{"gauss", "pcg"}, SkipThermal: true}}
	raw, err := e.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mutated the request:\nin:  %+v\nout: %+v", req, got)
	}
	raw2, err := e.EncodeRequest(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("encoding not canonical: %s vs %s", raw, raw2)
	}
}
