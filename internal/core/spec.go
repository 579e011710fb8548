package core

import (
	"context"
	"fmt"

	"diestack/internal/obs"
	"diestack/internal/thermal"
)

// RunSpec carries the cross-cutting parameters shared by every core
// experiment. Each Run* entry point reads only the fields it needs —
// a replay ignores Grid, a thermal solve ignores Seed and Scale — so
// one spec can drive a whole campaign. The zero value means: seed 0,
// reference-scale traces (Scale <= 0 generates as Scale 1), default
// thermal grid, no instrumentation.
//
// RunSpec is its own canonical wire form (the "spec" object of an
// experiment request): exactly the fields that determine a result,
// each omitted at its default, so a zero spec is the empty object.
// Obs and Workspaces are process-local and never travel.
//
//canon:wire
type RunSpec struct {
	// Seed seeds trace generation (replay experiments).
	Seed uint64 `json:"seed,omitempty"`
	// Scale sizes the generated workload footprints (1.0, or 0, = the
	// paper's reference; tests use smaller).
	Scale float64 `json:"scale,omitempty"`
	// Grid is the thermal lateral resolution (<= 0 selects the default).
	Grid int `json:"grid,omitempty"`
	// Obs, when non-nil, receives metrics and spans from every substrate
	// the experiment exercises (memhier_*, dram_*, thermal_*, fault_*).
	// A nil registry costs nothing on the hot paths.
	Obs *obs.Registry `json:"-"`
	// Workspaces, when non-nil, pools thermal discretizations across
	// solves: a solve of a stack whose shape (everything but its power
	// maps) was solved before reuses that workspace instead of
	// discretizing again. Pooled solves are bit-identical to fresh
	// ones; a nil pool means every solve starts cold.
	Workspaces *thermal.WorkspaceCache `json:"-"`
}

// Bounds on a spec that arrives from outside the process: a grid or
// workload scale far past anything the paper runs would allocate
// without limit. Every in-repo caller stays within grid 64, scale 1.
const (
	maxWireGrid  = 256
	maxWireScale = 4
)

// checkWire rejects a decoded spec outside the bounds an outside
// request may ask for, whether a stackd body or a diestack command
// line.
func (spec RunSpec) checkWire() error {
	if spec.Grid < 0 || spec.Grid > maxWireGrid {
		return fmt.Errorf("core: spec grid %d outside [0, %d]", spec.Grid, maxWireGrid)
	}
	if !(spec.Scale >= 0 && spec.Scale <= maxWireScale) {
		return fmt.Errorf("core: spec scale %g outside [0, %d]", spec.Scale, maxWireScale)
	}
	return nil
}

// solveStack solves s with the spec's instrumentation, on a pooled
// workspace of s's shape when the spec carries a pool.
func solveStack(ctx context.Context, spec RunSpec, s *thermal.Stack) (*thermal.Field, error) {
	return spec.Workspaces.Solve(ctx, s, thermal.SolveOptions{Obs: spec.Obs})
}
