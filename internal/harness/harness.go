// Package harness runs supervised simulation campaigns: a set of named
// jobs executed once each on a bounded worker pool (internal/fanout),
// each under its own deadline, with panic isolation, and partial
// results aggregated into a deterministic manifest.
//
// The harness exists so that a sweep of paper experiments — dozens of
// trace replays and thermal solves — survives any single job crashing,
// diverging, or hanging: the failure is recorded with its cause and
// the rest of the campaign completes normally. Jobs are deterministic
// simulations, so a failed job is not retried: it would fail the same
// way again.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"diestack/internal/fanout"
	"diestack/internal/obs"
)

// Job is one unit of campaign work.
type Job struct {
	// Name identifies the job in the manifest; names must be unique
	// within a campaign.
	Name string
	// Timeout overrides the campaign-wide per-job deadline for this job
	// (0 = use Config.Timeout).
	Timeout time.Duration
	// Run does the work. It must honor ctx: the harness cancels it on
	// timeout and on campaign cancellation. The returned value is
	// recorded in the manifest.
	Run func(ctx context.Context) (any, error)
}

// Config supervises a campaign. The zero value runs jobs on
// GOMAXPROCS workers with no deadline.
type Config struct {
	// Workers bounds concurrent jobs (0 = GOMAXPROCS). The pool never
	// exceeds GOMAXPROCS, whatever Workers asks for.
	Workers int
	// Timeout is the per-job deadline (0 = none).
	Timeout time.Duration
	// Log, when non-nil, receives one line per job outcome.
	Log func(format string, args ...any)
	// Obs, when non-nil, receives campaign metrics — queue depth and
	// running-job gauges, done/failed/timeout/canceled/panic counters
	// (the obs.MetricJobs* names the progress reporter reads) — and a
	// "harness/job" span per started job. A nil registry costs nothing.
	Obs *obs.Registry
}

// harnessObs holds the campaign's instruments, all nil (no-op) unless
// Config.Obs installed real ones.
type harnessObs struct {
	reg                        *obs.Registry
	done, failed               *obs.Counter
	timeouts, canceled, panics *obs.Counter
	total, queued, running     *obs.Gauge
}

func bindObs(reg *obs.Registry) harnessObs {
	if reg == nil {
		return harnessObs{}
	}
	return harnessObs{
		reg:      reg,
		done:     reg.Counter(obs.MetricJobsDone),
		failed:   reg.Counter(obs.MetricJobsFailed),
		timeouts: reg.Counter("harness_job_timeouts"),
		canceled: reg.Counter("harness_jobs_canceled"),
		panics:   reg.Counter("harness_job_panics"),
		total:    reg.Gauge(obs.MetricJobsTotal),
		queued:   reg.Gauge("harness_queue_depth"),
		running:  reg.Gauge("harness_jobs_running"),
	}
}

// Status classifies a job's final outcome.
type Status string

const (
	// StatusOK: the job returned a value.
	StatusOK Status = "ok"
	// StatusFailed: the job returned an error.
	StatusFailed Status = "failed"
	// StatusPanicked: the job panicked (stack recorded).
	StatusPanicked Status = "panicked"
	// StatusTimeout: the job exceeded its deadline.
	StatusTimeout Status = "timeout"
	// StatusCanceled: the campaign context was canceled before the job
	// could finish.
	StatusCanceled Status = "canceled"
)

// JobResult is one job's entry in the manifest.
type JobResult struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	// Attempts is 1 for a job that ran and 0 for one the campaign
	// canceled before it started.
	Attempts int `json:"attempts"`
	// Error is the job's error text (empty on success).
	Error string `json:"error,omitempty"`
	// Stack is the recovered panic stack (StatusPanicked only).
	Stack string `json:"stack,omitempty"`
	// Value is whatever the job returned (StatusOK only).
	Value any `json:"value,omitempty"`
}

// Manifest aggregates a campaign: every job's outcome, sorted by name
// so identical campaigns serialize identically.
type Manifest struct {
	Jobs []JobResult `json:"jobs"`
	// Outcome counts, for a one-line summary.
	OK       int `json:"ok"`
	Failed   int `json:"failed"`
	Panicked int `json:"panicked"`
	Timeout  int `json:"timeout"`
	Canceled int `json:"canceled"`
}

// Result returns the named job's result, or false if absent.
func (m *Manifest) Result(name string) (JobResult, bool) {
	for _, r := range m.Jobs {
		if r.Name == name {
			return r, true
		}
	}
	return JobResult{}, false
}

// WriteJSON serializes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Run executes the campaign and returns the manifest. The manifest is
// complete even when jobs fail — a failure is data, not an error. Run
// itself errors only on campaign-level problems (duplicate job names,
// a job with no Run function). Canceling ctx stops the campaign: jobs
// already running observe the cancellation through their contexts, and
// unstarted jobs are recorded as canceled.
func Run(ctx context.Context, cfg Config, jobs []Job) (*Manifest, error) {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Name == "" {
			return nil, errors.New("harness: job with empty name")
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("harness: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Run == nil {
			return nil, fmt.Errorf("harness: job %q has no Run function", j.Name)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ho := bindObs(cfg.Obs)
	ho.total.Set(float64(len(jobs)))
	ho.queued.Set(float64(len(jobs)))

	// Each job writes its own slot of a preallocated result slice, so
	// no result-side synchronization is needed beyond ForEach's return.
	results := make([]JobResult, len(jobs))
	fanout.ForEach(len(jobs), workers, func(i int) error {
		ho.queued.Add(-1)
		results[i] = runJob(ctx, cfg, jobs[i], logf, ho)
		ho.publish(results[i])
		return nil
	})
	return buildManifest(results), nil
}

// buildManifest assembles job results into the deterministic manifest
// form: entries sorted by name, outcome counts tallied. Identical
// result sets, in whatever order the workers produced them, build
// byte-identical manifests.
func buildManifest(results []JobResult) *Manifest {
	m := &Manifest{Jobs: append([]JobResult(nil), results...)}
	sort.Slice(m.Jobs, func(i, j int) bool { return m.Jobs[i].Name < m.Jobs[j].Name })
	for _, r := range m.Jobs {
		switch r.Status {
		case StatusOK:
			m.OK++
		case StatusFailed:
			m.Failed++
		case StatusPanicked:
			m.Panicked++
		case StatusTimeout:
			m.Timeout++
		case StatusCanceled:
			m.Canceled++
		}
	}
	return m
}

// publish folds one finished job into the campaign counters.
func (ho harnessObs) publish(res JobResult) {
	ho.done.Inc()
	switch res.Status {
	case StatusOK:
	case StatusTimeout:
		ho.timeouts.Inc()
		ho.failed.Inc()
	case StatusCanceled:
		ho.canceled.Inc()
		ho.failed.Inc()
	case StatusPanicked:
		ho.panics.Inc()
		ho.failed.Inc()
	default:
		ho.failed.Inc()
	}
}

// runJob runs one job once and classifies the outcome. A job whose
// turn comes after the campaign was canceled is recorded canceled with
// no attempt and no span.
func runJob(ctx context.Context, cfg Config, job Job, logf func(string, ...any), ho harnessObs) JobResult {
	res := JobResult{Name: job.Name}
	if err := ctx.Err(); err != nil {
		res.Status = StatusCanceled
		res.Error = err.Error()
		return res
	}
	sp := ho.reg.StartSpan("harness/job")
	defer sp.End()
	ho.running.Add(1)
	defer ho.running.Add(-1)
	timeout := cfg.Timeout
	if job.Timeout > 0 {
		timeout = job.Timeout
	}
	res.Attempts = 1
	value, stack, err := runAttempt(ctx, job, timeout)
	if err == nil {
		res.Status = StatusOK
		res.Value = value
		logf("job %s: ok", job.Name)
		return res
	}
	res.Error = err.Error()
	res.Stack = stack
	switch {
	case ctx.Err() != nil:
		// The campaign itself was canceled; don't blame the job.
		res.Status = StatusCanceled
	case stack != "":
		res.Status = StatusPanicked
	case errors.Is(err, context.DeadlineExceeded):
		res.Status = StatusTimeout
	default:
		res.Status = StatusFailed
	}
	logf("job %s: %s: %v", job.Name, res.Status, err)
	return res
}

// runAttempt runs the job under its deadline with panic isolation.
// A panic is converted into an error plus the captured stack.
func runAttempt(ctx context.Context, job Job, timeout time.Duration) (value any, stack string, err error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			value = nil
			stack = string(debug.Stack())
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	value, err = job.Run(actx)
	if err != nil {
		// A job that returns its context's deadline error should be
		// classified as a timeout even if it wrapped it poorly; prefer
		// the job context's verdict when both agree on failure.
		if actx.Err() != nil && ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w (job error: %v)", context.DeadlineExceeded, err)
		}
		return nil, "", err
	}
	return value, "", nil
}
