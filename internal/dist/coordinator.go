package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"diestack/internal/harness"
	"diestack/internal/obs"
)

// CoordinatorConfig parameterizes RunCoordinator.
type CoordinatorConfig struct {
	// Addr is the TCP listen address (host:port; port 0 picks one).
	Addr string
	// Jobs names every job of the campaign, in the same order a
	// single-process run would expand them.
	Jobs []string
	// SpecPayload is the opaque campaign description forwarded to every
	// worker; its hash fences off workers configured for a different
	// campaign and validates journal resumes.
	SpecPayload json.RawMessage
	// LeaseTTL is how long a lease stays valid past its grant or most
	// recent heartbeat (0 = 15s).
	LeaseTTL time.Duration
	// ReissueBudget bounds lease re-issues per job before the job is
	// recorded failed (0 = harness default of 8).
	ReissueBudget int
	// JournalPath, when non-empty, makes the merge crash-safe: every
	// accepted result is journaled and fsynced before it is
	// acknowledged, and an existing journal for the same campaign is
	// resumed instead of rerunning its jobs.
	JournalPath string
	// Obs, when non-nil, receives the lease-lifecycle and merge
	// counters (obs.MetricLease*, obs.MetricResults*), the campaign
	// done/failed counters the progress reporter reads, and a
	// "dist/campaign" span.
	Obs *obs.Registry
	// Log, when non-nil, receives one line per lease event and worker
	// arrival/departure.
	Log func(format string, args ...any)
	// Ready, when non-nil, receives the bound listen address once the
	// coordinator accepts connections (tests listen on port 0). The
	// channel should be buffered or promptly read.
	Ready chan<- string
	// Listen overrides net.Listen; tests and the chaos layer
	// (internal/chaos.Injector.Listen) interpose here. Nil listens
	// plain TCP.
	Listen func(network, addr string) (net.Listener, error)
	// DrainTimeout bounds the graceful drain on cancellation: the
	// coordinator stops granting new leases but keeps accepting
	// heartbeats and in-flight results for up to this long before
	// recording the rest canceled and exiting with a resumable journal
	// (0 = 5s).
	DrainTimeout time.Duration
	// IOTimeout bounds each per-connection socket read/write, so one
	// hung or partitioned peer cannot wedge its serve loop forever
	// (0 = 4×LeaseTTL, floored at 10s — comfortably past the longest
	// silence a live worker's pull/heartbeat cadence allows).
	IOTimeout time.Duration
}

// doneGrace is how long a finished coordinator keeps answering "done"
// to trailing pulls before force-closing connections.
const doneGrace = 2 * time.Second

// coordinator is the running state behind RunCoordinator.
type coordinator struct {
	cfg  CoordinatorConfig
	hash string
	logf func(string, ...any)

	mu       sync.Mutex // guards table + journal, so they never disagree
	table    *harness.LeaseTable
	journal  *journal
	fatalErr error

	done     chan struct{} // closed when every job has a terminal result
	doneOnce sync.Once
	shutdown atomic.Bool // stops new grants/results during teardown
	draining atomic.Bool // drain window: no new grants, results still merge

	ioTimeout time.Duration

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	grants, expired, reissues, steals *obs.Counter
	accepted, duplicate, divergent    *obs.Counter
	jobsDone, jobsFailed              *obs.Counter
	budgetFailed                      *obs.Counter
	drains, protoViolations           *obs.Counter
	connTimeouts                      *obs.Counter
	workers                           *obs.Gauge
}

// RunCoordinator shards the campaign's jobs over connecting workers
// and returns the merged manifest once every job has a terminal
// result. The manifest of a fully distributed run is byte-identical
// (via Manifest.WriteJSON) to a single-process harness run of the same
// jobs. Divergent duplicate completions are reported as an
// *IntegrityError alongside the manifest. Canceling ctx stops the
// campaign; unfinished jobs are recorded as canceled, mirroring the
// single-process harness.
func RunCoordinator(ctx context.Context, cfg CoordinatorConfig) (*harness.Manifest, error) {
	if cfg.Addr == "" {
		return nil, errors.New("dist: coordinator needs a listen address")
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	// An expired job waits 250ms before its re-issue, doubling per
	// expiry of the same job; up to two workers may hold one job.
	table, err := harness.NewLeaseTable(harness.LeaseConfig{
		TTL:            cfg.LeaseTTL,
		ReissueBudget:  cfg.ReissueBudget,
		ReissueBackoff: 250 * time.Millisecond,
	}, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		cfg:   cfg,
		hash:  specHash(cfg.SpecPayload),
		table: table,
		done:  make(chan struct{}),
		conns: map[net.Conn]struct{}{},
		logf:  cfg.Log,
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	c.ioTimeout = cfg.IOTimeout
	if c.ioTimeout == 0 {
		c.ioTimeout = 4 * cfg.LeaseTTL
		if c.ioTimeout < 10*time.Second {
			c.ioTimeout = 10 * time.Second
		}
	}
	c.bindObs(cfg.Obs)

	sp := cfg.Obs.StartSpan("dist/campaign")
	defer sp.End()

	if cfg.JournalPath != "" {
		if err := c.resumeJournal(); err != nil {
			return nil, err
		}
		defer c.journal.Close()
	}
	c.checkDone()

	listen := cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	if cfg.Ready != nil {
		cfg.Ready <- ln.Addr().String()
	}
	c.logf("coordinator: %d job(s), %d already merged, listening on %s",
		len(cfg.Jobs), len(cfg.Jobs)-c.remaining(), ln.Addr())

	expiryStop := make(chan struct{})
	go c.expireLoop(expiryStop)
	// The accept loop is wg-tracked like every serve goroutine: it
	// exits when ln.Close() below fails the Accept, which happens
	// before either wg.Wait, so the Wait also joins the loop itself.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.track(conn, true)
			c.wg.Add(1)
			go c.serve(conn)
		}
	}()

	canceled := false
	select {
	case <-c.done:
	case <-ctx.Done():
		// Graceful drain: the listener stays open (workers mid-reconnect
		// may still return), heartbeats keep renewing, in-flight results
		// keep merging — only new grants stop. The bounded wait below
		// runs before any teardown.
		canceled = true
		c.drain()
	}
	c.shutdown.Store(true)
	close(expiryStop)
	ln.Close()

	if canceled {
		c.mu.Lock()
		n := c.table.CancelRemaining(ctx.Err().Error())
		var syncErr error
		if c.journal != nil {
			syncErr = c.journal.Sync()
		}
		c.mu.Unlock()
		if syncErr != nil && !errors.Is(syncErr, os.ErrClosed) {
			c.fatal(fmt.Errorf("dist: journal sync on drain: %w", syncErr))
		}
		c.logf("coordinator: drained, %d unfinished job(s) recorded canceled (journal resumable)", n)
		c.closeConns()
	} else {
		// Give workers a moment to pull their "done" and exit cleanly;
		// dead peers (crashed or partitioned) are force-closed after
		// the grace window.
		drained := make(chan struct{})
		go func() { c.wg.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(doneGrace):
			c.closeConns()
		}
	}
	c.wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	msp := sp.Child("dist/merge")
	m := harness.BuildManifest(c.table.Results())
	msp.End()
	if c.fatalErr != nil {
		return m, c.fatalErr
	}
	if d := c.table.Divergences(); len(d) > 0 {
		return m, &IntegrityError{Reports: d}
	}
	return m, nil
}

// drain waits out the graceful-shutdown window: new grants have
// stopped (handlePull answers "wait" while draining), and the
// coordinator gives in-flight leases up to DrainTimeout to land their
// results before the rest of the campaign is recorded canceled. It
// returns early when the table empties of live leases or finishes
// outright; the expiry loop keeps running throughout, so a lease whose
// worker died during the drain still lapses instead of pinning the
// window open.
func (c *coordinator) drain() {
	c.draining.Store(true)
	c.drains.Inc()
	timeout := c.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c.mu.Lock()
	inFlight := c.table.Leased()
	c.mu.Unlock()
	c.logf("coordinator: draining — no new grants, waiting up to %v for %d in-flight lease(s)",
		timeout, inFlight)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-deadline.C:
			c.logf("coordinator: drain window closed after %v", timeout)
			return
		case <-tick.C:
			c.mu.Lock()
			leased := c.table.Leased()
			c.mu.Unlock()
			if leased == 0 {
				c.logf("coordinator: drain complete, no leases in flight")
				return
			}
		}
	}
}

// bindObs installs the coordinator's instruments (no-ops on nil).
func (c *coordinator) bindObs(reg *obs.Registry) {
	c.grants = reg.Counter(obs.MetricLeaseGrants)
	c.expired = reg.Counter(obs.MetricLeaseExpired)
	c.reissues = reg.Counter(obs.MetricLeaseReissues)
	c.steals = reg.Counter(obs.MetricLeaseSteals)
	c.accepted = reg.Counter(obs.MetricResultsAccepted)
	c.duplicate = reg.Counter(obs.MetricResultsDuplicate)
	c.divergent = reg.Counter(obs.MetricResultsDivergent)
	c.jobsDone = reg.Counter(obs.MetricJobsDone)
	c.jobsFailed = reg.Counter(obs.MetricJobsFailed)
	c.budgetFailed = reg.Counter("dist_lease_budget_failures")
	c.drains = reg.Counter(obs.MetricCoordinatorDrains)
	c.protoViolations = reg.Counter(obs.MetricProtoViolations)
	c.connTimeouts = reg.Counter(obs.MetricConnTimeouts)
	c.workers = reg.Gauge(obs.MetricWorkersConnected)
	reg.Gauge(obs.MetricJobsTotal).Set(float64(len(c.cfg.Jobs)))
}

// resumeJournal opens (or creates) the merge journal and replays its
// results into the lease table.
func (c *coordinator) resumeJournal() error {
	j, recorded, err := openJournal(c.cfg.JournalPath, c.hash, len(c.cfg.Jobs))
	if err != nil {
		return err
	}
	c.journal = j
	for _, wr := range recorded {
		out, err := c.table.Complete(wr.jobResult(), wr.fingerprint())
		if err != nil {
			j.Close()
			return fmt.Errorf("dist: journal %s: %w", c.cfg.JournalPath, err)
		}
		if out == harness.CompleteAccepted {
			c.publishResult(wr)
		}
	}
	if n := len(recorded); n > 0 {
		c.logf("coordinator: resumed %d merged result(s) from %s", n, c.cfg.JournalPath)
	}
	return nil
}

// publishResult folds one merged result into the campaign counters.
func (c *coordinator) publishResult(wr wireResult) {
	c.accepted.Inc()
	c.jobsDone.Inc()
	if wr.Status != harness.StatusOK {
		c.jobsFailed.Inc()
	}
}

// remaining reads the open-job count under the lock.
func (c *coordinator) remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table.Remaining()
}

// checkDone closes the done channel once every job is terminal.
func (c *coordinator) checkDone() {
	c.mu.Lock()
	done := c.table.Done()
	c.mu.Unlock()
	if done {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// fatal records a campaign-level failure (journal write lost) and ends
// the campaign: without a durable merge the coordinator must not keep
// acknowledging results it could silently lose.
func (c *coordinator) fatal(err error) {
	c.mu.Lock()
	if c.fatalErr == nil {
		c.fatalErr = err
	}
	c.mu.Unlock()
	c.logf("coordinator: fatal: %v", err)
	c.doneOnce.Do(func() { close(c.done) })
}

// track registers or forgets a connection for teardown.
func (c *coordinator) track(conn net.Conn, add bool) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if add {
		c.conns[conn] = struct{}{}
	} else {
		delete(c.conns, conn)
	}
}

// closeConns force-closes every live connection.
func (c *coordinator) closeConns() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	for conn := range c.conns {
		conn.Close()
	}
}

// expireLoop periodically reclaims lapsed leases. Scan interval is a
// quarter TTL, clamped to stay responsive without spinning.
func (c *coordinator) expireLoop(stop <-chan struct{}) {
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		requeued, failed, expired := c.table.ExpireDue(time.Now())
		var failedResults []wireResult
		for _, name := range failed {
			if res, ok := c.table.Result(name); ok {
				wr, err := encodeResult(res)
				if err != nil {
					c.mu.Unlock()
					c.fatal(err)
					return
				}
				// Budget failures are coordinator-fabricated: mark them so
				// a journal replay recomputes the same empty fingerprint
				// the live table recorded, and a straggling real result
				// dedups identically on a resumed coordinator.
				wr.Synthetic = true
				failedResults = append(failedResults, wr)
			}
		}
		if c.journal != nil {
			for _, wr := range failedResults {
				if err := c.journal.append(wr); err != nil {
					c.mu.Unlock()
					c.fatal(err)
					return
				}
			}
		}
		c.mu.Unlock()
		if expired > 0 {
			c.expired.Add(uint64(expired))
			c.logf("coordinator: %d lease(s) expired, %d job(s) re-queued", expired, len(requeued))
		}
		if len(requeued) > 0 {
			c.reissues.Add(uint64(len(requeued)))
		}
		for _, wr := range failedResults {
			c.budgetFailed.Inc()
			c.publishResult(wr)
			c.logf("coordinator: job %s failed: re-issue budget exhausted", wr.Name)
		}
		if len(failedResults) > 0 {
			c.checkDone()
		}
	}
}

// serve handles one worker connection until it closes or the
// coordinator shuts down. Reads and writes run under the
// per-connection IO deadline; a peer gone silent past it is closed and
// counted, and protocol violations (oversized or malformed lines) are
// answered and counted rather than silently dropped — on a fleet, the
// difference between "flaky network" and "version-skewed worker" is
// exactly this accounting.
func (c *coordinator) serve(conn net.Conn) {
	defer c.wg.Done()
	defer c.track(conn, false)
	defer conn.Close()
	lc := newLineConn(conn)
	lc.ioTimeout = c.ioTimeout
	worker := ""
	defer func() {
		if worker != "" {
			c.workers.Add(-1)
			c.logf("coordinator: worker %s disconnected", worker)
		}
	}()
	violation := func(msg string) {
		c.protoViolations.Inc()
		who := worker
		if who == "" {
			who = conn.RemoteAddr().String()
		}
		c.logf("coordinator: protocol violation from %s: %s", who, msg)
	}
	for {
		req, err := lc.readRequest()
		if err != nil {
			var pe *ProtocolError
			switch {
			case errors.As(err, &pe):
				// The peer spoke, just wrongly: tell it why before
				// hanging up, and account for the violation.
				violation(pe.Reason)
				lc.writeJSON(response{Type: "error", Err: pe.Reason})
			case errors.Is(err, os.ErrDeadlineExceeded):
				c.connTimeouts.Inc()
				c.logf("coordinator: connection from %s idle past %v, closing (worker %q)",
					conn.RemoteAddr(), c.ioTimeout, worker)
			}
			return // leases expire on their own
		}
		var resp response
		switch req.Type {
		case "hello":
			if req.Proto != protoVersion {
				violation(fmt.Sprintf("protocol version %d, want %d", req.Proto, protoVersion))
				lc.writeJSON(response{Type: "error",
					Err: fmt.Sprintf("protocol version %d, want %d", req.Proto, protoVersion)})
				return
			}
			if req.Worker == "" {
				violation("hello without a worker name")
				lc.writeJSON(response{Type: "error", Err: "hello without a worker name"})
				return
			}
			if req.SpecHash != "" && req.SpecHash != c.hash {
				// A reconnecting worker from a different campaign (or a
				// coordinator restarted with a different spec): fence it
				// off before it pulls mismatched jobs.
				lc.writeJSON(response{Type: "error",
					Err: fmt.Sprintf("spec hash %.12s.. does not match this campaign's %.12s..",
						req.SpecHash, c.hash)})
				return
			}
			if worker == "" {
				worker = req.Worker
				c.workers.Add(1)
				c.logf("coordinator: worker %s connected", worker)
			}
			resp = response{Type: "spec", Spec: c.cfg.SpecPayload, SpecHash: c.hash,
				LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()}
		case "pull":
			resp = c.handlePull(worker, req)
		case "heartbeat":
			c.mu.Lock()
			renewed := c.table.Heartbeat(worker, req.Leases, time.Now())
			c.mu.Unlock()
			resp = response{Type: "ok", Renewed: renewed}
		case "result":
			resp = c.handleResult(worker, req)
		default:
			violation(fmt.Sprintf("unknown request type %q", req.Type))
			resp = response{Type: "error", Err: fmt.Sprintf("unknown request type %q", req.Type)}
		}
		if err := lc.writeJSON(resp); err != nil {
			return
		}
	}
}

// handlePull grants leases, or tells the worker to wait or quit.
func (c *coordinator) handlePull(worker string, req request) response {
	if worker == "" {
		return response{Type: "error", Err: "pull before hello"}
	}
	if c.draining.Load() {
		// Draining (and the teardown that follows it): grant nothing,
		// but answer "wait" rather than "done" so workers linger — their
		// in-flight results are still wanted, and if the coordinator is
		// being restarted (rolling upgrade) they should reconnect to its
		// successor instead of exiting as if the campaign finished.
		return c.waitResponse()
	}
	if c.shutdown.Load() {
		return response{Type: "done"}
	}
	c.mu.Lock()
	if c.table.Done() {
		c.mu.Unlock()
		return response{Type: "done"}
	}
	grants := c.table.Acquire(worker, req.Max, time.Now())
	c.mu.Unlock()
	if len(grants) == 0 {
		return c.waitResponse()
	}
	wire := make([]wireGrant, len(grants))
	for i, g := range grants {
		wire[i] = wireGrant{Job: g.Job, LeaseID: g.LeaseID, Stolen: g.Stolen}
		c.grants.Inc()
		if g.Stolen {
			c.steals.Inc()
			c.logf("coordinator: worker %s stole a duplicate lease on %s", worker, g.Job)
		}
	}
	return response{Type: "grant", Grants: wire}
}

// waitResponse tells a worker to poll again shortly, at a tenth of the
// lease TTL clamped to [20ms, 500ms].
func (c *coordinator) waitResponse() response {
	wait := c.cfg.LeaseTTL / 10
	if wait < 20*time.Millisecond {
		wait = 20 * time.Millisecond
	}
	if wait > 500*time.Millisecond {
		wait = 500 * time.Millisecond
	}
	return response{Type: "wait", WaitMS: wait.Milliseconds()}
}

// handleResult merges one submitted result.
func (c *coordinator) handleResult(worker string, req request) response {
	if worker == "" {
		return response{Type: "error", Err: "result before hello"}
	}
	if req.Result == nil || req.Result.Name == "" {
		return response{Type: "error", Err: "result without a payload"}
	}
	if c.shutdown.Load() {
		return response{Type: "done"}
	}
	wr := *req.Result
	if wr.Status == harness.StatusCanceled {
		// A worker-local cancellation is not a campaign outcome: the
		// job is still owed a real result and will be re-issued when
		// the lease lapses.
		return response{Type: "ok", Outcome: "ignored"}
	}
	c.mu.Lock()
	out, err := c.table.Complete(wr.jobResult(), wr.fingerprint())
	if err != nil {
		c.mu.Unlock()
		return response{Type: "error", Err: err.Error()}
	}
	if out == harness.CompleteAccepted && c.journal != nil {
		if jerr := c.journal.append(wr); jerr != nil {
			c.mu.Unlock()
			c.fatal(jerr)
			return response{Type: "error", Err: jerr.Error()}
		}
	}
	c.mu.Unlock()
	switch out {
	case harness.CompleteAccepted:
		c.publishResult(wr)
		c.logf("coordinator: job %s %s from %s", wr.Name, wr.Status, worker)
	case harness.CompleteDuplicate:
		c.duplicate.Inc()
		c.logf("coordinator: job %s duplicate completion from %s (dropped)", wr.Name, worker)
	case harness.CompleteDivergent:
		c.divergent.Inc()
		c.logf("coordinator: job %s DIVERGENT duplicate completion from %s", wr.Name, worker)
	}
	c.checkDone()
	return response{Type: "ok", Outcome: out.String()}
}
