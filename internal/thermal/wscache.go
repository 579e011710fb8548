package thermal

import (
	"container/list"
	"context"
	"sync"
)

// WorkspaceCache pools Workspaces across solves so callers that see the
// same stack shape repeatedly — a long-running service handling many
// requests, a sweep revisiting one geometry at several solver settings
// — skip re-discretization. Entries are keyed by a caller-chosen
// string; the contract is that every stack solved under one key is
// built identically (same geometry, materials, and power sources), so
// reusing the first discretization is exact. Solver options are
// per-solve, not part of the key: one cached workspace serves every
// option setting.
//
// Every solve resets the workspace to the ambient initial guess, so a
// pooled solve is bit-identical to a fresh thermal.Solve of the same
// stack. Solves sharing a key serialize (a Workspace is not safe for
// concurrent use); distinct keys solve concurrently. The cache is safe
// for concurrent use and evicts least-recently-used entries beyond its
// bound.
type WorkspaceCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*wsEntry
	lru     *list.List // front = most recently used; values are *wsEntry
}

// wsEntry serializes solves on its shared workspace with a
// capacity-one token channel rather than a mutex: a solve holds the
// token across the whole Workspace.Solve, and a waiter gives up when
// its context is canceled instead of queueing on a mutex it can no
// longer use. The cache's own mu guards only the map and the LRU list
// and is never held across a solve, so a long solve delays only the
// solves of its own key (TestWorkspaceCacheParkedSolve).
type wsEntry struct {
	sem  chan struct{} // capacity 1; the token serializes solves
	ws   *Workspace    // built under the token on first solve
	key  string
	elem *list.Element
}

// lock acquires the entry's solve token, failing fast when ctx ends
// first. release returns it.
func (e *wsEntry) lock(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *wsEntry) release() { <-e.sem }

// DefaultWorkspaceCacheSize bounds a cache built with size <= 0.
const DefaultWorkspaceCacheSize = 8

// NewWorkspaceCache returns a cache holding at most max workspaces
// (<= 0 selects DefaultWorkspaceCacheSize).
func NewWorkspaceCache(max int) *WorkspaceCache {
	if max <= 0 {
		max = DefaultWorkspaceCacheSize
	}
	return &WorkspaceCache{
		max:     max,
		entries: map[string]*wsEntry{},
		lru:     list.New(),
	}
}

// Solve computes the steady-state field of s, reusing the cached
// discretization for key when one exists and caching this one
// otherwise. s must be built identically to every other stack solved
// under key. Semantics match thermal.Solve exactly.
func (c *WorkspaceCache) Solve(ctx context.Context, key string, s *Stack, opt SolveOptions) (*Field, error) {
	if c == nil {
		return Solve(ctx, s, opt)
	}
	e, reused := c.acquire(key)
	if reused {
		opt.Obs.Counter("thermal_ws_reused").Inc()
	}

	if err := e.lock(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	if e.ws == nil {
		ws, err := NewWorkspace(s)
		if err != nil {
			c.drop(e)
			return nil, err
		}
		e.ws = ws
	}
	return e.ws.Solve(ctx, opt)
}

// Len reports the number of cached workspaces.
func (c *WorkspaceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close evicts every entry. Solves in flight finish on their evicted
// workspaces. The cache remains usable; later solves start cold.
func (c *WorkspaceCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*wsEntry{}
	c.lru.Init()
}

// acquire returns the entry for key (creating it, and evicting the
// least-recently-used entries beyond the bound, if needed) and whether
// the entry already existed.
func (c *WorkspaceCache) acquire(key string) (e *wsEntry, reused bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		c.lru.MoveToFront(e.elem)
		return e, true
	}
	e = &wsEntry{key: key, sem: make(chan struct{}, 1)}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.max {
		back := c.lru.Back()
		old := back.Value.(*wsEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
	}
	return e, false
}

// drop removes an entry whose workspace failed to build.
func (c *WorkspaceCache) drop(e *wsEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	}
}
