package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall back to base
// and fails the test if it does not within a few seconds.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want %d after the sweep returned", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFigure5Cancellation cancels the sweep before it starts and while
// its replays run: both must surface context.Canceled, and no replay
// goroutine may outlive the call.
func TestFigure5Cancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFigure5(ctx, RunSpec{Seed: 1, Scale: 0.1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sweep: err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)

	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := RunFigure5(ctx, RunSpec{Seed: 1, Scale: 0.1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep canceled mid-run: err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

// TestFigure5ScheduleIndependent runs the sweep with one worker (the
// serial loop), two and four; the results must be identical.
func TestFigure5ScheduleIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("three Figure 5 sweeps")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := RunSpec{Seed: 3, Scale: 0.1}
	serial, err := RunFigure5(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		parallel, err := RunFigure5(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("Figure 5 differs between GOMAXPROCS 1 and %d", procs)
		}
	}
}

// TestTable4ScheduleIndependent runs Table 4's twelve configurations
// one after another and side by side; the results must be identical.
func TestTable4ScheduleIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := RunTable4(context.Background(), RunSpec{Seed: 3}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := RunTable4(context.Background(), RunSpec{Seed: 3}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Table 4 differs between GOMAXPROCS 1 and 4")
	}
}

// TestTable4Cancellation: a pre-canceled Table 4 surfaces
// context.Canceled, and none of its configurations' goroutines outlive
// the call.
func TestTable4Cancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunTable4(ctx, RunSpec{Seed: 1}, 20_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Table 4: err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}

// TestThermalScheduleIndependent: the thermal solver splits each
// large multigrid level across a crew sized by GOMAXPROCS, and a
// closed-loop DTM run and Figure 8's steady solves must come out the
// same at GOMAXPROCS 1 (no crew) and 4.
func TestThermalScheduleIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reqs := []struct {
		exp string
		req ExperimentRequest
	}{
		{"managed-logic-thermal", ExperimentRequest{Spec: RunSpec{Grid: testGrid},
			Params: &ManagedThermalParams{Variant: "3d", Steps: 24}}},
		{"fig8", ExperimentRequest{Spec: RunSpec{Grid: testGrid}}},
	}
	for _, r := range reqs {
		runtime.GOMAXPROCS(1)
		serial, err := RunExperiment(context.Background(), r.exp, r.req)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4)
		crewed, err := RunExperiment(context.Background(), r.exp, r.req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Value, crewed.Value) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4", r.exp)
		}
	}
}
