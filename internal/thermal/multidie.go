package thermal

import "fmt"

// MultiDieStack generalizes ThreeDStack to stacks of two or more dies
// — the extension the paper notes is possible ("it is also possible to
// stack many die") but leaves unexplored. The first die sits next to
// the heat sink with full-thickness bulk silicon; the first pair is
// bonded face to face exactly as in Figure 1; every further die bonds
// face to back against the previous die's thinned bulk, the standard
// TSV-based construction for taller stacks:
//
//	heat sink ... / bulk Si #1 / active #1 / metal #1 / bond /
//	metal #2 / active #2 / thin Si #2 / bond / metal #3 / active #3 /
//	thin Si #3 / ... / C4 ... motherboard
//
// Each die after the first pays its predecessors' thermal resistance;
// MultiDieStack exists precisely to quantify that.
//
// Tall stacks carry proportionally more z cells, so their solves are
// the ones that benefit most from a Workspace (one discretization for
// many solves).
func MultiDieStack(dieW, dieH float64, dies []DieSpec, opt StackOptions) (*Stack, error) {
	if len(dies) < 2 {
		return nil, fmt.Errorf("thermal: MultiDieStack needs at least 2 dies, got %d", len(dies))
	}
	nx, ny := opt.grid()
	die := CenteredDie(DefaultPackageW, DefaultPackageH, dieW, dieH)

	layers := coolingAssemblyTop()
	layers = append(layers,
		Layer{Name: "TIM1", Thickness: 25e-6, Material: TIM, Extent: die},
		Layer{Name: "bulk Si #1", Thickness: Si1Thickness, Material: Silicon, Extent: die},
		Layer{Name: "active #1", Thickness: ActiveThickness, Material: Silicon, Extent: die, Power: dies[0].Power},
		Layer{Name: dieLayerName("metal", 1), Thickness: dies[0].MetalThickness, Material: metalFor(dies[0], opt), Extent: die},
	)
	for i := 1; i < len(dies); i++ {
		d := dies[i]
		layers = append(layers,
			Layer{Name: dieLayerName("bond", i), Thickness: BondThickness, Material: opt.bond(), Extent: die},
			Layer{Name: dieLayerName("metal", i+1), Thickness: d.MetalThickness, Material: metalFor(d, opt), Extent: die},
			Layer{Name: dieLayerName("active", i+1), Thickness: ActiveThickness, Material: Silicon, Extent: die, Power: d.Power},
			Layer{Name: dieLayerName("thin Si", i+1), Thickness: Si2Thickness, Material: Silicon, Extent: die},
		)
	}
	layers = append(layers, Layer{Name: "C4/underfill", Thickness: 80e-6, Material: Underfill, Extent: die})
	layers = append(layers, packageAssemblyBottom()...)

	return &Stack{
		Width: DefaultPackageW, Height: DefaultPackageH, Nx: nx, Ny: ny,
		Layers:   layers,
		TopH:     opt.topH(),
		BottomH:  DefaultBottomH,
		AmbientC: AmbientC,
	}, nil
}

func dieLayerName(kind string, i int) string {
	return fmt.Sprintf("%s #%d", kind, i)
}

func metalFor(d DieSpec, opt StackOptions) Material {
	if d.Metal.Name == CuMetal.Name && opt.CuMetalK > 0 {
		return opt.cuMetal()
	}
	return d.Metal
}

// ActiveLayerIndex returns the stack layer index of die i's active
// layer (0-based die numbering) in a MultiDieStack, or -1.
func (s *Stack) ActiveLayerIndex(die int) int {
	if die == 0 {
		if i := s.LayerIndex("active #1"); i >= 0 {
			return i
		}
		return s.LayerIndex("active")
	}
	return s.LayerIndex(dieLayerName("active", die+1))
}
