package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func ok(v any) Job {
	return Job{Name: "ok", Run: func(context.Context) (any, error) { return v, nil }}
}

func TestRunCollectsValues(t *testing.T) {
	jobs := []Job{
		{Name: "a", Run: func(context.Context) (any, error) { return 1, nil }},
		{Name: "b", Run: func(context.Context) (any, error) { return 2, nil }},
		{Name: "c", Run: func(context.Context) (any, error) { return 3, nil }},
	}
	m, err := Run(context.Background(), Config{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.OK != 3 || len(m.Jobs) != 3 {
		t.Fatalf("want 3 ok, got %+v", m)
	}
	for i, want := range []any{1, 2, 3} {
		if m.Jobs[i].Value != want {
			t.Errorf("job %d value %v, want %v", i, m.Jobs[i].Value, want)
		}
	}
}

func TestManifestSortedAndDeterministic(t *testing.T) {
	jobs := []Job{
		{Name: "zeta", Run: func(context.Context) (any, error) { return "z", nil }},
		{Name: "alpha", Run: func(context.Context) (any, error) { return "a", nil }},
		{Name: "mid", Run: func(context.Context) (any, error) { return "m", nil }},
	}
	var first string
	for i := 0; i < 5; i++ {
		m, err := Run(context.Background(), Config{Workers: 3}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			if !strings.Contains(first, `"alpha"`) {
				t.Fatalf("manifest missing job: %s", first)
			}
			continue
		}
		if buf.String() != first {
			t.Fatalf("run %d produced a different manifest:\n%s\nvs\n%s", i, buf.String(), first)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Name: "boom", Run: func(context.Context) (any, error) { panic("kaboom") }},
		{Name: "fine", Run: func(context.Context) (any, error) { return 42, nil }},
	}
	m, err := Run(context.Background(), Config{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	boom, _ := m.Result("boom")
	if boom.Status != StatusPanicked {
		t.Fatalf("want panicked, got %s", boom.Status)
	}
	if !strings.Contains(boom.Error, "kaboom") {
		t.Fatalf("panic value lost: %q", boom.Error)
	}
	if !strings.Contains(boom.Stack, "harness") {
		t.Fatalf("stack not captured: %q", boom.Stack)
	}
	fine, _ := m.Result("fine")
	if fine.Status != StatusOK || fine.Value != 42 {
		t.Fatalf("healthy job damaged by its neighbor's panic: %+v", fine)
	}
}

func TestRetryWithBackoff(t *testing.T) {
	var sleeps []time.Duration
	attempts := 0
	jobs := []Job{{Name: "flaky", Run: func(context.Context) (any, error) {
		attempts++
		if attempts < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}}
	m, err := Run(context.Background(), Config{
		Retries: 3,
		Backoff: 10 * time.Millisecond,
		Sleep:   func(d time.Duration) { sleeps = append(sleeps, d) },
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Result("flaky")
	if r.Status != StatusOK || r.Attempts != 3 {
		t.Fatalf("want ok after 3 attempts, got %+v", r)
	}
	if r.Error != "" || r.Stack != "" {
		t.Fatalf("earlier failures should be cleared on success: %+v", r)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(sleeps) != 2 || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Fatalf("backoff should double: got %v, want %v", sleeps, want)
	}
}

func TestRetriesExhausted(t *testing.T) {
	attempts := 0
	jobs := []Job{{Name: "doomed", Run: func(context.Context) (any, error) {
		attempts++
		return nil, fmt.Errorf("failure %d", attempts)
	}}}
	m, err := Run(context.Background(), Config{Retries: 2, Sleep: func(time.Duration) {}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Result("doomed")
	if r.Status != StatusFailed || r.Attempts != 3 {
		t.Fatalf("want failed after 3 attempts, got %+v", r)
	}
	if r.Error != "failure 3" {
		t.Fatalf("manifest should carry the final attempt's error, got %q", r.Error)
	}
}

func TestTimeoutClassification(t *testing.T) {
	jobs := []Job{{Name: "slow", Timeout: 10 * time.Millisecond,
		Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}}}
	m, err := Run(context.Background(), Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Result("slow")
	if r.Status != StatusTimeout {
		t.Fatalf("want timeout, got %+v", r)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobs := []Job{
		{Name: "running", Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{Name: "queued", Run: func(context.Context) (any, error) { return 1, nil }},
	}
	go func() {
		<-started
		cancel()
	}()
	// One worker: "queued" is still in the feed when the campaign dies.
	m, err := Run(ctx, Config{Workers: 1, Retries: 5}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"running", "queued"} {
		r, _ := m.Result(name)
		if r.Status != StatusCanceled {
			t.Errorf("%s: want canceled, got %+v", name, r)
		}
		if r.Attempts > 1 {
			t.Errorf("%s: canceled jobs must not be retried, got %d attempts", name, r.Attempts)
		}
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, []Job{ok(1), ok(2)}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := Run(context.Background(), Config{}, []Job{{Name: "x"}}); err == nil {
		t.Fatal("nil Run accepted")
	}
	if _, err := Run(context.Background(), Config{}, []Job{{Run: func(context.Context) (any, error) { return nil, nil }}}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestFailures(t *testing.T) {
	jobs := []Job{
		{Name: "good", Run: func(context.Context) (any, error) { return 1, nil }},
		{Name: "bad", Run: func(context.Context) (any, error) { return nil, errors.New("no") }},
	}
	m, err := Run(context.Background(), Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, r := range m.Jobs {
		if r.Status != StatusOK {
			failed = append(failed, r.Name)
		}
	}
	if len(failed) != 1 || failed[0] != "bad" {
		t.Fatalf("want one failure (bad), got %v in %+v", failed, m.Jobs)
	}
	if m.OK != 1 || m.Failed != 1 {
		t.Fatalf("counts wrong: %+v", m)
	}
}

func TestPanicOnFinalRetryAttempt(t *testing.T) {
	attempts := 0
	jobs := []Job{{Name: "lastgasp", Run: func(context.Context) (any, error) {
		attempts++
		if attempts <= 2 {
			return nil, errors.New("transient")
		}
		panic("died on the last attempt")
	}}}
	m, err := Run(context.Background(), Config{Retries: 2, Sleep: func(time.Duration) {}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Result("lastgasp")
	if r.Status != StatusPanicked || r.Attempts != 3 {
		t.Fatalf("want panicked on attempt 3, got %+v", r)
	}
	if !strings.Contains(r.Error, "died on the last attempt") || r.Stack == "" {
		t.Fatalf("final-attempt panic not captured: %+v", r)
	}
}

func TestDeadlineExpiringMidBackoff(t *testing.T) {
	// The campaign deadline fires while the only job is parked in a
	// long retry backoff; the default sleep must wake early instead of
	// serving out the full 30s.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	jobs := []Job{{Name: "parked", Run: func(context.Context) (any, error) {
		return nil, errors.New("always fails")
	}}}
	start := time.Now()
	m, err := Run(ctx, Config{Retries: 1, Backoff: 30 * time.Second}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored the campaign deadline (took %v)", elapsed)
	}
	r, _ := m.Result("parked")
	if r.Status != StatusCanceled {
		t.Fatalf("want canceled out of backoff, got %+v", r)
	}
}

func TestCancellationRacingCompletion(t *testing.T) {
	// The job cancels the campaign itself and then returns
	// successfully: a completed attempt must stay ok, not be
	// reclassified as canceled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job{{Name: "racer", Run: func(context.Context) (any, error) {
		cancel()
		return "made it", nil
	}}}
	m, err := Run(ctx, Config{Retries: 3}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Result("racer")
	if r.Status != StatusOK || r.Value != "made it" || r.Attempts != 1 {
		t.Fatalf("success lost the race to cancellation: %+v", r)
	}
}
