// Package harness runs supervised simulation campaigns: a set of named
// jobs executed on a bounded worker pool, each under its own deadline,
// with panic isolation, retry with exponential backoff, and partial
// results aggregated into a deterministic manifest.
//
// The harness exists so that a sweep of paper experiments — dozens of
// trace replays and thermal solves — survives any single job crashing,
// diverging, or hanging: the failure is recorded with its cause and
// the rest of the campaign completes normally.
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
	"sync"
	"time"

	"diestack/internal/obs"
	"diestack/internal/stats"
)

// Job is one unit of campaign work.
type Job struct {
	// Name identifies the job in the manifest; names must be unique
	// within a campaign.
	Name string
	// Timeout overrides the campaign-wide per-attempt deadline for this
	// job (0 = use Config.Timeout).
	Timeout time.Duration
	// Run does the work. It must honor ctx: the harness cancels it on
	// timeout and on campaign cancellation. The returned value is
	// recorded in the manifest.
	Run func(ctx context.Context) (any, error)
}

// Config supervises a campaign. The zero value runs jobs one at a
// time with no deadline and no retries.
type Config struct {
	// Workers bounds concurrent jobs (0 = GOMAXPROCS).
	Workers int
	// Timeout is the per-attempt deadline (0 = none).
	Timeout time.Duration
	// Retries is how many times a failed or timed-out attempt is
	// retried before the job is recorded as failed.
	Retries int
	// Backoff is the sleep before the first retry; it doubles on each
	// subsequent one (0 = retry immediately).
	Backoff time.Duration
	// Jitter shortens each backoff sleep by a random fraction of up to
	// this much (in [0, 1]): a sleep of d becomes d - d*Jitter*u with u
	// uniform in [0, 1). Without jitter, jobs that failed together
	// retry together and stampede whatever shared resource felled them.
	// The randomness comes from a seeded deterministic generator
	// (internal/stats), derived per job name, so identical campaigns
	// sleep identically. 0 = exact doubling.
	Jitter float64
	// JitterSeed seeds the jitter source. Distinct jobs still jitter
	// differently under the same seed; the seed exists so a rerun of
	// the same campaign reproduces the same schedule.
	JitterSeed uint64
	// Sleep replaces the inter-attempt sleep; tests inject a recorder
	// here. When nil, the harness sleeps on a timer but wakes early if
	// the campaign context is canceled, so a job stuck in a long
	// backoff cannot outlive its campaign.
	Sleep func(time.Duration)
	// Log, when non-nil, receives one line per attempt outcome.
	Log func(format string, args ...any)
	// Obs, when non-nil, receives campaign metrics — queue depth and
	// running-job gauges, done/failed/retry/timeout/canceled/panic
	// counters (the obs.MetricJobs* names the progress reporter reads) —
	// and a "harness/job" span per job. A nil registry costs nothing.
	Obs *obs.Registry
}

// harnessObs holds the campaign's instruments, all nil (no-op) unless
// Config.Obs installed real ones.
type harnessObs struct {
	reg                        *obs.Registry
	done, failed, retries      *obs.Counter
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
		retries:  reg.Counter(obs.MetricJobRetries),
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
	// StatusFailed: every attempt returned an error.
	StatusFailed Status = "failed"
	// StatusPanicked: the final attempt panicked (stack recorded).
	StatusPanicked Status = "panicked"
	// StatusTimeout: the final attempt exceeded its deadline.
	StatusTimeout Status = "timeout"
	// StatusCanceled: the campaign context was canceled before the job
	// could finish; canceled jobs are not retried.
	StatusCanceled Status = "canceled"
)

// JobResult is one job's entry in the manifest.
type JobResult struct {
	Name     string `json:"name"`
	Status   Status `json:"status"`
	Attempts int    `json:"attempts"`
	// Error is the final attempt's error text (empty on success).
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

// Failures returns the results that did not end in StatusOK.
func (m *Manifest) Failures() []JobResult {
	var out []JobResult
	for _, r := range m.Jobs {
		if r.Status != StatusOK {
			out = append(out, r)
		}
	}
	return out
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
	if cfg.Jitter < 0 || cfg.Jitter > 1 || cfg.Jitter != cfg.Jitter {
		return nil, fmt.Errorf("harness: Jitter must be in [0, 1], got %v", cfg.Jitter)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ho := bindObs(cfg.Obs)
	ho.total.Set(float64(len(jobs)))
	ho.queued.Set(float64(len(jobs)))

	// Workers pull job indexes and write into distinct slots of a
	// preallocated result slice, so no result-side synchronization is
	// needed beyond the WaitGroup.
	results := make([]JobResult, len(jobs))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				ho.queued.Add(-1)
				ho.running.Add(1)
				results[i] = runJob(ctx, cfg, jobs[i], logf, ho)
				ho.running.Add(-1)
				ho.publish(results[i])
			}
		}()
	}
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			// Unstarted jobs are recorded as canceled without being
			// invoked.
			results[i] = JobResult{Name: jobs[i].Name, Status: StatusCanceled,
				Error: ctx.Err().Error()}
			ho.queued.Add(-1)
			ho.publish(results[i])
		}
	}
	close(feed)
	wg.Wait()

	return BuildManifest(results), nil
}

// BuildManifest assembles job results into the deterministic manifest
// form: entries sorted by name, outcome counts tallied. Identical
// result sets — whatever order and process they were produced in —
// build byte-identical manifests, which is what lets a distributed
// campaign's merged manifest be compared against a single-process run.
func BuildManifest(results []JobResult) *Manifest {
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

// RunOne executes a single job through the same attempt machinery the
// campaign pool uses — panic isolation, per-attempt deadline, retry
// with jittered doubling backoff — and returns its result without any
// manifest bookkeeping. Distributed campaign workers run leased jobs
// through it so a crash or hang in one job is isolated exactly as it
// would be in a single-process campaign.
func RunOne(ctx context.Context, cfg Config, job Job) JobResult {
	if job.Run == nil {
		return JobResult{Name: job.Name, Status: StatusFailed,
			Error: "harness: job has no Run function"}
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ho := bindObs(cfg.Obs)
	ho.running.Add(1)
	res := runJob(ctx, cfg, job, logf, ho)
	ho.running.Add(-1)
	ho.publish(res)
	return res
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
	if res.Attempts > 1 {
		ho.retries.Add(uint64(res.Attempts - 1))
	}
}

// runJob runs one job through its attempt loop.
func runJob(ctx context.Context, cfg Config, job Job, logf func(string, ...any), ho harnessObs) JobResult {
	sp := ho.reg.StartSpan("harness/job")
	defer sp.End()
	res := JobResult{Name: job.Name}
	timeout := cfg.Timeout
	if job.Timeout > 0 {
		timeout = job.Timeout
	}
	backoff := cfg.Backoff
	var jitter *stats.RNG
	if cfg.Jitter > 0 {
		// Derived per job name: jobs that fail together spread their
		// retries apart, yet the schedule is a pure function of
		// (JitterSeed, job name, attempt) and replays exactly.
		jitter = stats.NewRNG(jitterSeed(cfg.JitterSeed, job.Name))
	}
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		if err := ctx.Err(); err != nil {
			res.Status = StatusCanceled
			res.Error = err.Error()
			logf("job %s: canceled before attempt %d", job.Name, attempt+1)
			return res
		}
		value, stack, err := runAttempt(ctx, job, timeout)
		if err == nil {
			res.Status = StatusOK
			res.Value = value
			res.Error = ""
			res.Stack = ""
			logf("job %s: ok (attempt %d)", job.Name, attempt+1)
			return res
		}
		res.Error = err.Error()
		res.Stack = stack
		switch {
		case ctx.Err() != nil:
			// The campaign itself was canceled; don't retry and don't
			// blame the job.
			res.Status = StatusCanceled
			logf("job %s: canceled during attempt %d", job.Name, attempt+1)
			return res
		case stack != "":
			res.Status = StatusPanicked
		case errors.Is(err, context.DeadlineExceeded):
			res.Status = StatusTimeout
		default:
			res.Status = StatusFailed
		}
		logf("job %s: attempt %d/%d %s: %v", job.Name, attempt+1, cfg.Retries+1, res.Status, err)
		if attempt >= cfg.Retries {
			return res
		}
		if backoff > 0 {
			d := backoff
			if jitter != nil {
				d -= time.Duration(cfg.Jitter * jitter.Float64() * float64(d))
			}
			sleepBackoff(ctx, cfg.Sleep, d)
			backoff *= 2
		}
	}
}

// sleepBackoff waits out one inter-attempt backoff. An injected Sleep
// (tests) is called as-is; the default timer sleep wakes early when the
// campaign context is canceled, so cancellation and campaign deadlines
// reach jobs parked in a long backoff instead of waiting it out. The
// attempt loop's top-of-loop ctx check turns the early wake into a
// canceled result.
func sleepBackoff(ctx context.Context, sleep func(time.Duration), d time.Duration) {
	if sleep != nil {
		sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// NewJitterRNG returns the deterministic jitter stream the retry
// backoff uses for one name: a generator seeded from (seed, name), so
// distinct names spread their sleeps apart while a rerun with the same
// seed reproduces the same schedule. Exported for the distributed
// layer, whose dial and reconnect backoffs need exactly this shape of
// randomness (per-worker, replayable) without inventing a second
// seeding idiom.
func NewJitterRNG(seed uint64, name string) *stats.RNG {
	return stats.NewRNG(jitterSeed(seed, name))
}

// jitterSeed mixes the campaign seed with an FNV-1a hash of the job
// name, giving every job its own deterministic jitter stream.
func jitterSeed(seed uint64, name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ seed
}

// runAttempt runs one attempt under its deadline with panic isolation.
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
		// the attempt context's verdict when both agree on failure.
		if actx.Err() != nil && ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w (job error: %v)", context.DeadlineExceeded, err)
		}
		return nil, "", err
	}
	return value, "", nil
}
