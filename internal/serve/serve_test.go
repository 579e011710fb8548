package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diestack/internal/core"
	"diestack/internal/leakcheck"
	"diestack/internal/obs"
)

// countingExperiment returns a synthetic catalog entry that counts its
// invocations and, when gate is non-nil, blocks inside the runner
// until the gate closes — the knob every concurrency test turns.
func countingExperiment(name string, runs *atomic.Int64, gate chan struct{}) core.Experiment {
	return core.Experiment{
		Name: name,
		Doc:  "test experiment",
		Runner: func(ctx context.Context, spec core.RunSpec, _ any) (any, error) {
			runs.Add(1)
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return map[string]uint64{"seed": spec.Seed}, nil
		},
	}
}

// startServer serves a Server built from cfg on a test HTTP server.
// When the test ends it closes the test server and the client's idle
// connections, then fails the test if a goroutine the requests started
// is still running.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	base := runtime.NumGoroutine()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Settle(t, base)
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestCacheHitMiss(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	_, ts := startServer(t, Config{
		Experiments: []core.Experiment{countingExperiment("count", &runs, nil)},
		Obs:         reg,
	})
	url := ts.URL + "/v1/experiments/count"

	resp, body1 := post(t, url, `{"spec":{"seed":7}}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("first POST: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Stackd-Cache"))
	}
	// Same request, defaults spelled out and fields reordered: the
	// canonical codec must land on the same cache key.
	resp, body2 := post(t, url, `{"experiment":"count","spec":{"scale":0,"seed":7},"params":null}`)
	if resp.Header.Get("X-Stackd-Cache") != "hit" {
		t.Fatalf("second POST not a hit: %q", resp.Header.Get("X-Stackd-Cache"))
	}
	if body1 != body2 {
		t.Fatalf("hit body diverged:\n%s\n%s", body1, body2)
	}
	if !strings.Contains(body1, `"experiment":"count"`) || !strings.Contains(body1, `"seed":7`) {
		t.Fatalf("unexpected body: %s", body1)
	}
	// A different spec is a fresh miss.
	resp, _ = post(t, url, `{"spec":{"seed":8}}`)
	if resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("distinct spec served from cache: %q", resp.Header.Get("X-Stackd-Cache"))
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner executed %d times, want 2", got)
	}
	if reg.CounterValue("stackd_cache_hits") != 1 || reg.CounterValue("stackd_requests") != 3 {
		t.Fatalf("counters: hits=%d requests=%d",
			reg.CounterValue("stackd_cache_hits"), reg.CounterValue("stackd_requests"))
	}
}

// TestColdThermalReusesWorkspace pins stackd's cold-thermal path: a
// memory-thermal request with a fresh seed misses the result cache
// (the seed is part of the canonical key) but solves on the workspace
// that the first request's stack left pooled, and answers the same
// bytes.
func TestColdThermalReusesWorkspace(t *testing.T) {
	_, ts := startServer(t, Config{})
	url := ts.URL + "/v1/experiments/memory-thermal"
	var bodies []string
	for _, body := range []string{
		`{"spec":{"grid":16},"params":{"capacity_mb":32}}`,
		`{"spec":{"grid":16,"seed":2},"params":{"capacity_mb":32}}`,
	} {
		resp, got := post(t, url, body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stackd-Cache") != "miss" {
			t.Fatalf("POST %s: status %d, cache %q, body %s", body, resp.StatusCode, resp.Header.Get("X-Stackd-Cache"), got)
		}
		bodies = append(bodies, got)
	}
	if bodies[0] != bodies[1] {
		t.Errorf("bodies differ in the seed alone:\n%s\n%s", bodies[0], bodies[1])
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["thermal_ws_reused"]; got != 1 {
		t.Errorf("thermal_ws_reused = %d, want 1", got)
	}
}

// flightWaiters counts the followers latched onto s's open flights.
func flightWaiters(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.flights {
		n += f.waiters
	}
	return n
}

func TestSingleflightMerge(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	s, ts := startServer(t, Config{
		Experiments: []core.Experiment{countingExperiment("count", &runs, gate)},
		Obs:         reg,
		MaxSolves:   2,
	})

	var wg sync.WaitGroup
	bodies := make([]string, n)
	states := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/experiments/count", `{"spec":{"seed":1}}`)
			bodies[i] = body
			states[i] = resp.Header.Get("X-Stackd-Cache")
		}(i)
	}
	// Release the leader only once it is inside the gate and every
	// other request has latched onto its flight; a follower that had
	// merely arrived could otherwise miss the flight and be served from
	// the cache instead.
	for runs.Load() < 1 || flightWaiters(s) < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical requests, want exactly 1", got, n)
	}
	var miss, merged int
	for i := range bodies {
		if bodies[i] != bodies[0] {
			t.Fatalf("bodies diverged:\n%s\n%s", bodies[0], bodies[i])
		}
		switch states[i] {
		case "miss":
			miss++
		case "merged":
			merged++
		default:
			t.Fatalf("request %d: cache state %q", i, states[i])
		}
	}
	if miss != 1 || merged != n-1 {
		t.Fatalf("miss=%d merged=%d, want 1/%d", miss, merged, n-1)
	}
	if reg.CounterValue("stackd_inflight_merged") != n-1 {
		t.Fatalf("stackd_inflight_merged = %d", reg.CounterValue("stackd_inflight_merged"))
	}
}

func TestShedUnderLoad(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	_, ts := startServer(t, Config{
		Experiments: []core.Experiment{countingExperiment("count", &runs, gate)},
		Obs:         reg,
		MaxSolves:   1,
		RetryAfter:  3 * time.Second,
	})
	url := ts.URL + "/v1/experiments/count"

	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, _ := post(t, url, `{"spec":{"seed":1}}`); resp.StatusCode != http.StatusOK {
			t.Errorf("occupant got %d", resp.StatusCode)
		}
	}()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The only solve slot is held; a distinct request must be shed, not
	// queued.
	resp, body := post(t, url, `{"spec":{"seed":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	if reg.CounterValue("stackd_shed") != 1 {
		t.Fatalf("stackd_shed = %d", reg.CounterValue("stackd_shed"))
	}
	close(gate)
	<-done
	// Capacity freed: the shed spec now runs (sheds are never cached).
	if resp, _ := post(t, url, `{"spec":{"seed":2}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed got %d", resp.StatusCode)
	}
}

func TestErrorsNotCached(t *testing.T) {
	var calls atomic.Int64
	exp := core.Experiment{
		Name: "flaky",
		Doc:  "fails once",
		Runner: func(ctx context.Context, _ core.RunSpec, _ any) (any, error) {
			if calls.Add(1) == 1 {
				return nil, context.DeadlineExceeded
			}
			return "ok", nil
		},
	}
	_, ts := startServer(t, Config{Experiments: []core.Experiment{exp}})
	url := ts.URL + "/v1/experiments/flaky"

	if resp, body := post(t, url, ``); resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(body, "error") {
		t.Fatalf("first POST: %d %s", resp.StatusCode, body)
	}
	resp, _ := post(t, url, ``)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("error was cached: %d %q", resp.StatusCode, resp.Header.Get("X-Stackd-Cache"))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{})

	if resp, _ := post(t, ts.URL+"/v1/experiments/fig99", ``); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/fig5", `{"leases":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/fig5", `{"experiment":"fig8"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("name mismatch: %d", resp.StatusCode)
	}
	// Specs past the wire bounds would allocate without limit (a
	// makeslice panic for the grid, an OOM for the scale): rejected at
	// decode, before any solver work.
	if resp, _ := post(t, ts.URL+"/v1/experiments/fig6", `{"spec":{"grid":3037000500}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge grid: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/memory-perf", `{"spec":{"seed":1,"scale":1e12}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge scale: %d", resp.StatusCode)
	}
	// Names and params the run would refuse are the client's mistake: a
	// 400 at decode, not a 500 after taking a solve slot.
	for _, bad := range []struct{ exp, body string }{
		{"memory-perf", `{"params":{"benchmark":"nope"}}`},
		{"memory-perf", `{"params":{"capacity_mb":7}}`},
		{"memory-perf", `{"params":{"capacity_mb":32,"faults":{"dead_banks":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}}}`},
		{"fig5", `{"params":{"benchmarks":["gauss","nope"]}}`},
		{"fig5", `{"params":{"faults":{"tsv_fail_frac":1.5}}}`},
		{"campaign", `{"params":{"benchmarks":["nope"]}}`},
		{"campaign", `{"params":{"benchmarks":["gauss","gauss"]}}`},
		{"logic-thermal", `{"params":{"variant":"4d"}}`},
		{"fig3", `{"params":{"layer":"tim"}}`},
		{"managed-logic-thermal", `{"params":{"hysteresis_c":95}}`},
	} {
		if resp, body := post(t, ts.URL+"/v1/experiments/"+bad.exp, bad.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: %d %s", bad.exp, bad.body, resp.StatusCode, body)
		}
	}
}

// TestRunnerPanicRecovered: a panicking runner fails its request with
// a 500 that is not cached, and releases its flight and solve slot, so
// a later identical request gets an answer instead of waiting forever
// and the server keeps serving.
func TestRunnerPanicRecovered(t *testing.T) {
	var runs atomic.Int64
	boom := core.Experiment{
		Name: "boom",
		Doc:  "always panics",
		Runner: func(context.Context, core.RunSpec, any) (any, error) {
			panic("injected runner panic")
		},
	}
	_, ts := startServer(t, Config{
		Experiments: []core.Experiment{boom, countingExperiment("count", &runs, nil)},
		MaxSolves:   1,
	})
	ts.Client().Timeout = 3 * time.Second

	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/experiments/boom", "application/json",
			strings.NewReader(`{"spec":{"seed":1}}`))
		if err != nil {
			t.Fatalf("POST %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
			t.Fatalf("POST %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Stackd-Cache") != "" {
			t.Fatalf("POST %d: panic served with cache state %q", i, resp.Header.Get("X-Stackd-Cache"))
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/experiments/count", `{"spec":{"seed":1}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after a runner panic: %d", resp.StatusCode)
	}
}

// TestLegacySolverKeysRejected: the thermal solver has one schedule,
// so the retired "method" and "parallelism" spec keys are unknown
// fields. A body carrying either — even with a value older clients
// sent legitimately — gets a 400 from strict decode: no panic, and no
// silent ignore that would run (and cache) the request as if the key
// were absent.
func TestLegacySolverKeysRejected(t *testing.T) {
	var runs atomic.Int64
	_, ts := startServer(t, Config{Experiments: []core.Experiment{countingExperiment("count", &runs, nil)}})
	url := ts.URL + "/v1/experiments/count"

	for _, body := range []string{
		`{"spec":{"seed":1,"method":"multigrid"}}`,
		`{"spec":{"seed":1,"method":"sor"}}`,
		`{"spec":{"seed":1,"parallelism":2}}`,
		`{"spec":{"seed":1,"parallelism":0}}`,
	} {
		resp, msg := post(t, url, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(msg, "unknown field") {
			t.Errorf("%s: error body %q does not name the unknown field", body, msg)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("legacy bodies ran the experiment %d times", n)
	}
	if resp, _ := post(t, url, `{"spec":{"seed":1}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after legacy bodies: %d", resp.StatusCode)
	}
}

func TestListAndMetricsAndHealth(t *testing.T) {
	_, ts := startServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"memory-perf", "fig5", "table4", "managed-logic-thermal", "campaign"} {
		if !strings.Contains(string(list), `"name":"`+name+`"`) {
			t.Errorf("catalog listing missing %s", name)
		}
	}
	if !strings.Contains(string(list), `"capacity_mb":"number"`) {
		t.Errorf("listing lacks params schema: %s", list)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "stackd_requests") {
		t.Errorf("metrics snapshot lacks stackd family: %s", metrics)
	}
}

// TestGracefulShutdownDrain pins the drain contract: Shutdown waits
// for the in-flight solve, which completes and is delivered to its
// client.
func TestGracefulShutdownDrain(t *testing.T) {
	var runs atomic.Int64
	gate := make(chan struct{})
	_, ts := startServer(t, Config{Experiments: []core.Experiment{countingExperiment("count", &runs, gate)}})

	type result struct {
		status int
		body   string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := post(t, ts.URL+"/v1/experiments/count", `{"spec":{"seed":1}}`)
		inflight <- result{resp.StatusCode, body}
	}()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	shutdown := make(chan error, 1)
	go func() { shutdown <- ts.Config.Shutdown(context.Background()) }()
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned before the in-flight request drained: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-inflight
	if res.status != http.StatusOK || !strings.Contains(res.body, `"seed":1`) {
		t.Fatalf("drained request got %d %s", res.status, res.body)
	}
}

func TestCacheEviction(t *testing.T) {
	var runs atomic.Int64
	_, ts := startServer(t, Config{
		Experiments:  []core.Experiment{countingExperiment("count", &runs, nil)},
		CacheEntries: 1,
	})
	url := ts.URL + "/v1/experiments/count"

	post(t, url, `{"spec":{"seed":1}}`)
	post(t, url, `{"spec":{"seed":2}}`) // evicts seed 1
	resp, _ := post(t, url, `{"spec":{"seed":1}}`)
	if resp.Header.Get("X-Stackd-Cache") != "miss" {
		t.Fatalf("evicted entry still served: %q", resp.Header.Get("X-Stackd-Cache"))
	}
	if runs.Load() != 3 {
		t.Fatalf("runner executed %d times, want 3", runs.Load())
	}
}
