package thermal

import (
	"context"
	"sync"
	"testing"
	"time"

	"diestack/internal/obs"
)

// wscacheStack builds a small deterministic planar stack for cache
// tests; every call returns an identical stack.
func wscacheStack(nx int) *Stack {
	pm := NewPowerMap(nx, nx)
	pm.FillRect(nx/4, nx/4, 3*nx/4, 3*nx/4, 40)
	return PlanarStack(0.01, 0.01, pm, StackOptions{Nx: nx, Ny: nx})
}

func TestWorkspaceCacheReuseIsBitIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewWorkspaceCache(4)
	defer c.Close()

	fresh, err := Solve(context.Background(), wscacheStack(16), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fields []*Field
	for i := 0; i < 3; i++ {
		f, err := c.Solve(context.Background(), "planar/16", wscacheStack(16), SolveOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	for i, f := range fields {
		if f.Peak() != fresh.Peak() {
			t.Errorf("solve %d peak %v differs from fresh solve %v", i, f.Peak(), fresh.Peak())
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if got := reg.CounterValue("thermal_ws_reused"); got != 2 {
		t.Errorf("thermal_ws_reused = %d, want 2", got)
	}
}

func TestWorkspaceCacheEvictsLRU(t *testing.T) {
	c := NewWorkspaceCache(2)
	defer c.Close()
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if _, err := c.Solve(context.Background(), k, wscacheStack(16), SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 after eviction", c.Len())
	}
}

func TestWorkspaceCacheConcurrentSolves(t *testing.T) {
	c := NewWorkspaceCache(2)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		key := "even"
		if i%2 == 1 {
			key = "odd"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Solve(context.Background(), key, wscacheStack(16), SolveOptions{})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNilWorkspaceCacheSolves(t *testing.T) {
	var c *WorkspaceCache
	if _, err := c.Solve(context.Background(), "k", wscacheStack(16), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// parkedCtx is a context whose first Err call parks until release is
// closed. Workspace.Solve checks Err once per cycle, so a solve under
// it stops mid-run while holding its entry's token.
type parkedCtx struct {
	context.Context
	once            sync.Once
	parked, release chan struct{}
}

func (c *parkedCtx) Err() error {
	c.once.Do(func() {
		close(c.parked)
		<-c.release
	})
	return c.Context.Err()
}

// TestWorkspaceCacheParkedSolve parks one solve mid-run: Len and a
// solve under another key must still return, because a solve holds
// only its own entry's token and never the cache's lock.
func TestWorkspaceCacheParkedSolve(t *testing.T) {
	c := NewWorkspaceCache(4)
	defer c.Close()
	ctx := &parkedCtx{Context: context.Background(), parked: make(chan struct{}), release: make(chan struct{})}
	parkedDone := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, "parked", wscacheStack(16), SolveOptions{})
		parkedDone <- err
	}()
	<-ctx.parked

	otherDone := make(chan error, 1)
	var n int
	go func() {
		n = c.Len()
		_, err := c.Solve(context.Background(), "other", wscacheStack(16), SolveOptions{})
		otherDone <- err
	}()
	select {
	case err := <-otherDone:
		if err != nil {
			t.Error(err)
		}
		if n != 1 {
			t.Errorf("Len = %d while one solve was parked, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("Len or a solve under another key blocked behind a parked solve")
		defer func() { <-otherDone }()
	}
	close(ctx.release)
	if err := <-parkedDone; err != nil {
		t.Fatal(err)
	}
}
