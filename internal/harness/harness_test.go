package harness

import (
	"bytes"
	"context"
	"errors"
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
	// One worker: "queued" has not started when the campaign dies.
	m, err := Run(ctx, Config{Workers: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"running", "queued"} {
		r, _ := m.Result(name)
		if r.Status != StatusCanceled {
			t.Errorf("%s: want canceled, got %+v", name, r)
		}
		if r.Attempts > 1 {
			t.Errorf("%s: canceled jobs run at most once, got %d attempts", name, r.Attempts)
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
	m, err := Run(ctx, Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Result("racer")
	if r.Status != StatusOK || r.Value != "made it" || r.Attempts != 1 {
		t.Fatalf("success lost the race to cancellation: %+v", r)
	}
}
