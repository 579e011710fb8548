package thermal

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// WorkspaceCache pools idle Workspaces across solves so callers that
// see the same stack geometry repeatedly — a long-running service
// handling many requests, a sweep revisiting one geometry at several
// power levels — skip re-discretization. The pool keys a workspace by
// the stack's shape: every Stack field except the power maps. A pooled
// workspace is rebound to the caller's stack, whose power maps every
// solve re-rasterizes, so a pooled solve is bit-identical to a fresh
// thermal.Solve of the same stack whatever its power.
//
// A solve takes an idle workspace of its shape, or builds one, and
// returns it when done; no solve ever waits on another. The pool keeps
// at most maxIdleWorkspaces idle workspaces and drops the least
// recently returned beyond that. It is safe for concurrent use, and a
// nil pool solves every stack fresh.
type WorkspaceCache struct {
	mu   sync.Mutex
	idle []idleWorkspace // least recently returned first
}

type idleWorkspace struct {
	shape string
	ws    *Workspace
}

// maxIdleWorkspaces bounds the idle workspaces a pool keeps.
const maxIdleWorkspaces = 8

// NewWorkspaceCache returns an empty pool.
func NewWorkspaceCache() *WorkspaceCache { return &WorkspaceCache{} }

// shapeKey names everything a Workspace's discretization depends on:
// the stack with its power maps left out. %v prints each float64 in
// its shortest exact form, so equal keys mean bit-equal fields.
func shapeKey(s *Stack) string {
	shape := *s
	shape.Layers = make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		l.Power = nil
		shape.Layers[i] = l
	}
	return fmt.Sprintf("%+v", shape)
}

// Solve computes the steady-state field of s on an idle workspace of
// s's shape when the pool holds one. Semantics match thermal.Solve
// exactly.
func (c *WorkspaceCache) Solve(ctx context.Context, s *Stack, opt SolveOptions) (*Field, error) {
	if c == nil {
		return Solve(ctx, s, opt)
	}
	// A pooled workspace skips NewWorkspace's validation, which also
	// checks the power maps the shape leaves out.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	shape := shapeKey(s)
	ws := c.take(shape)
	if ws != nil {
		opt.Obs.Counter("thermal_ws_reused").Inc()
		ws.sv.s = s
	} else {
		var err error
		if ws, err = NewWorkspace(s); err != nil {
			return nil, err
		}
	}
	f, err := ws.Solve(ctx, opt)
	c.put(shape, ws)
	return f, err
}

// take removes and returns the most recently returned idle workspace
// of shape, or nil.
func (c *WorkspaceCache) take(shape string) *Workspace {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.idle) - 1; i >= 0; i-- {
		if c.idle[i].shape == shape {
			ws := c.idle[i].ws
			c.idle = slices.Delete(c.idle, i, i+1)
			return ws
		}
	}
	return nil
}

// put returns ws to the pool, dropping the least recently returned
// idle workspace beyond the bound.
func (c *WorkspaceCache) put(shape string, ws *Workspace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle = append(c.idle, idleWorkspace{shape, ws})
	if len(c.idle) > maxIdleWorkspaces {
		c.idle = slices.Delete(c.idle, 0, 1)
	}
}
