package thermal

import (
	"context"
	"math"
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

// ambientStack is wscacheStack(16) at ambient c: one distinct stack
// shape per value of c.
func ambientStack(c float64) *Stack {
	s := wscacheStack(16)
	s.AmbientC = c
	return s
}

// requireSameBits fails the test unless got is bit-identical to a
// fresh thermal.Solve of s.
func requireSameBits(t *testing.T, name string, s *Stack, got *Field) {
	t.Helper()
	want, err := Solve(context.Background(), s, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.t) != len(want.t) {
		t.Fatalf("%s: %d cells, fresh solve has %d", name, len(got.t), len(want.t))
	}
	for i := range want.t {
		if math.Float64bits(got.t[i]) != math.Float64bits(want.t[i]) {
			t.Fatalf("%s: cell %d = %v, fresh solve %v", name, i, got.t[i], want.t[i])
		}
	}
	if got.stack != s {
		t.Errorf("%s: field bound to another stack than the one solved", name)
	}
}

func TestWorkspaceCacheReuseIsBitIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewWorkspaceCache()
	for i := 0; i < 3; i++ {
		s := wscacheStack(16)
		f, err := c.Solve(context.Background(), s, SolveOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "pooled solve", s, f)
	}
	if got := reg.CounterValue("thermal_ws_reused"); got != 2 {
		t.Errorf("thermal_ws_reused = %d, want 2", got)
	}
}

// TestWorkspaceCacheShapeKey holds the pool's key to every Stack
// field but the power maps: stacks that differ in any one of those
// fields never share a workspace, stacks that differ only in power do,
// and every pooled result is bit-identical to a fresh solve.
func TestWorkspaceCacheShapeKey(t *testing.T) {
	base := func() *Stack { return wscacheStack(16) }
	// grid rebuilds the stack on an nx-by-ny grid, power map included.
	grid := func(nx, ny int) *Stack {
		s := base()
		pm := NewPowerMap(nx, ny)
		pm.FillRect(nx/4, ny/4, 3*nx/4, 3*ny/4, 40)
		s.Nx, s.Ny = nx, ny
		s.Layers[s.LayerIndex("active")].Power = pm
		return s
	}
	// layer mutates the bulk silicon layer, which is bounded to the die.
	layer := func(f func(l *Layer)) func() *Stack {
		return func() *Stack {
			s := base()
			f(&s.Layers[s.LayerIndex("bulk Si")])
			return s
		}
	}
	stack := func(f func(s *Stack)) func() *Stack {
		return func() *Stack {
			s := base()
			f(s)
			return s
		}
	}
	for _, tc := range []struct {
		name  string
		build func() *Stack
	}{
		{"Width", stack(func(s *Stack) { s.Width *= 1.01 })},
		{"Height", stack(func(s *Stack) { s.Height *= 1.01 })},
		{"Nx", func() *Stack { return grid(17, 16) }},
		{"Ny", func() *Stack { return grid(16, 17) }},
		{"TopH", stack(func(s *Stack) { s.TopH *= 2 })},
		{"BottomH", stack(func(s *Stack) { s.BottomH *= 2 })},
		{"AmbientC", stack(func(s *Stack) { s.AmbientC += 5 })},
		{"Layer.Name", layer(func(l *Layer) { l.Name = "thinned Si" })},
		{"Layer.Thickness", layer(func(l *Layer) { l.Thickness *= 2 })},
		{"Material.Name", layer(func(l *Layer) { l.Material.Name = "doped Si" })},
		{"Material.Conductivity", layer(func(l *Layer) { l.Material.Conductivity *= 2 })},
		{"Material.HeatCapacity", layer(func(l *Layer) { l.Material.HeatCapacity *= 2 })},
		{"Extent.X", layer(func(l *Layer) { l.Extent.X += 1e-4 })},
		{"Extent.Y", layer(func(l *Layer) { l.Extent.Y += 1e-4 })},
		{"Extent.W", layer(func(l *Layer) { l.Extent.W -= 1e-4 })},
		{"Extent.H", layer(func(l *Layer) { l.Extent.H -= 1e-4 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := solvePair(t, tc.build()); got != 0 {
				t.Errorf("stacks differing in %s shared a workspace (thermal_ws_reused = %d)", tc.name, got)
			}
		})
	}
	t.Run("power", func(t *testing.T) {
		hot := base()
		hot.Layers[hot.LayerIndex("active")].Power.Add(8, 8, 1)
		if got := solvePair(t, hot); got != 1 {
			t.Errorf("stacks differing only in power: thermal_ws_reused = %d, want 1", got)
		}
	})
}

// solvePair solves wscacheStack(16) and then s on one new pool,
// requires s's field to be bit-identical to a fresh solve, and returns
// how many of the two solves reused a pooled workspace.
func solvePair(t *testing.T, s *Stack) uint64 {
	t.Helper()
	reg := obs.NewRegistry()
	c := NewWorkspaceCache()
	if _, err := c.Solve(context.Background(), wscacheStack(16), SolveOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Solve(context.Background(), s, SolveOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "second solve", s, f)
	return reg.CounterValue("thermal_ws_reused")
}

// TestWorkspaceCacheEvictsLRU fills the pool past its bound with
// distinct shapes: the least recently returned workspace is dropped
// and the most recent is still pooled.
func TestWorkspaceCacheEvictsLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewWorkspaceCache()
	solve := func(i int) {
		t.Helper()
		if _, err := c.Solve(context.Background(), ambientStack(float64(40+i)), SolveOptions{Obs: reg}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= maxIdleWorkspaces; i++ {
		solve(i)
	}
	if len(c.idle) != maxIdleWorkspaces {
		t.Errorf("%d idle workspaces, want the bound %d", len(c.idle), maxIdleWorkspaces)
	}
	solve(0)
	if got := reg.CounterValue("thermal_ws_reused"); got != 0 {
		t.Errorf("the least recently used shape was still pooled (thermal_ws_reused = %d)", got)
	}
	solve(maxIdleWorkspaces)
	if got := reg.CounterValue("thermal_ws_reused"); got != 1 {
		t.Errorf("the most recently used shape was dropped (thermal_ws_reused = %d, want 1)", got)
	}
}

// TestWorkspaceCacheConcurrentSolves runs two rounds of solves of two
// shapes from eight goroutines, so solves take workspaces that other
// goroutines returned (under -race, verify.sh's run).
func TestWorkspaceCacheConcurrentSolves(t *testing.T) {
	c := NewWorkspaceCache()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				s := ambientStack(float64(40 + i%2))
				f, err := c.Solve(context.Background(), s, SolveOptions{})
				if err == nil && f.stack != s {
					t.Errorf("solve %d: field bound to another stack", i)
				}
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(c.idle) > maxIdleWorkspaces {
		t.Errorf("%d idle workspaces, bound %d", len(c.idle), maxIdleWorkspaces)
	}
}

// TestWorkspaceCacheValidates: a stack whose power map is off its grid
// is refused, as thermal.Solve refuses it, even when the pool holds an
// idle workspace of its shape.
func TestWorkspaceCacheValidates(t *testing.T) {
	c := NewWorkspaceCache()
	if _, err := c.Solve(context.Background(), wscacheStack(16), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	bad := wscacheStack(16)
	bad.Layers[bad.LayerIndex("active")].Power = NewPowerMap(17, 16)
	if _, err := c.Solve(context.Background(), bad, SolveOptions{}); err == nil {
		t.Error("a power map off the stack's grid was solved on a pooled workspace")
	}
}

func TestNilWorkspaceCacheSolves(t *testing.T) {
	var c *WorkspaceCache
	if _, err := c.Solve(context.Background(), wscacheStack(16), SolveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// parkedCtx is a context whose first Err call parks until release is
// closed. Workspace.Solve checks Err once per cycle, so a solve under
// it stops mid-run while holding its workspace.
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

// TestWorkspaceCacheParkedSolve parks one solve mid-run: a solve of
// another stack shape and a solve of the same shape must still return,
// because a solve holds only its own workspace and never the pool's
// lock, and the parked workspace is never lent out.
func TestWorkspaceCacheParkedSolve(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewWorkspaceCache()
	ctx := &parkedCtx{Context: context.Background(), parked: make(chan struct{}), release: make(chan struct{})}
	parkedDone := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, wscacheStack(16), SolveOptions{})
		parkedDone <- err
	}()
	<-ctx.parked

	for _, tc := range []struct {
		name string
		s    *Stack
	}{
		{"another shape", ambientStack(50)},
		{"the same shape", wscacheStack(16)},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := c.Solve(context.Background(), tc.s, SolveOptions{Obs: reg})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("a solve of %s blocked behind a parked solve", tc.name)
			defer func() { <-done }()
		}
	}
	if got := reg.CounterValue("thermal_ws_reused"); got != 0 {
		t.Errorf("a solve reused the parked solve's workspace (thermal_ws_reused = %d)", got)
	}
	close(ctx.release)
	if err := <-parkedDone; err != nil {
		t.Fatal(err)
	}
}
