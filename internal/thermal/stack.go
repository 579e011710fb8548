package thermal

import "fmt"

// Rect is a lateral rectangle within the package column, in meters.
type Rect struct {
	X, Y, W, H float64
}

// Layer is one slab of the vertical assembly. Layers are listed from
// the heat-sink side (top) down to the motherboard (bottom), matching
// Figure 2 of the paper.
type Layer struct {
	Name      string
	Thickness float64 // meters
	Material  Material
	// Extent limits the layer's material to a lateral rectangle; cells
	// outside it are EpoxyFill (the fillet around a die that is smaller
	// than the package). A zero Extent covers the whole column.
	Extent Rect
	// Power, when non-nil, injects per-cell wattage into this layer
	// (the active silicon of a die). Its grid must match the stack's.
	Power *PowerMap
}

// bounded reports whether the layer has a restricted extent.
func (l Layer) bounded() bool { return l.Extent.W > 0 && l.Extent.H > 0 }

// Stack is the full thermal assembly: lateral extent, grid resolution,
// the layer list, and the convective boundary conditions of
// Equation (2). The lateral column is the package footprint; dies
// smaller than the package are bounded layers inside it.
type Stack struct {
	// Width and Height are the lateral package dimensions in meters.
	Width, Height float64
	// Nx, Ny are the lateral grid resolution.
	Nx, Ny int
	// Layers from heat sink (index 0) to motherboard (last).
	Layers []Layer
	// TopH and BottomH are the heat-transfer coefficients (W/m²K) at
	// the first layer's outer face (forced convection through the
	// sink) and the last layer's outer face (natural convection).
	TopH, BottomH float64
	// AmbientC is the ambient temperature in Celsius.
	AmbientC float64
}

// Validate reports geometry errors.
func (s *Stack) Validate() error {
	if s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("thermal: non-positive lateral size %g x %g", s.Width, s.Height)
	}
	if s.Nx < 2 || s.Ny < 2 {
		return fmt.Errorf("thermal: grid %dx%d too coarse", s.Nx, s.Ny)
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("thermal: no layers")
	}
	for i, l := range s.Layers {
		if l.Thickness <= 0 {
			return fmt.Errorf("thermal: layer %d (%s) has thickness %g", i, l.Name, l.Thickness)
		}
		if l.Material.Conductivity <= 0 {
			return fmt.Errorf("thermal: layer %d (%s) has conductivity %g", i, l.Name, l.Material.Conductivity)
		}
		if l.Power != nil {
			nx, ny := l.Power.Size()
			if nx != s.Nx || ny != s.Ny {
				return fmt.Errorf("thermal: layer %d (%s) power map %dx%d mismatches grid %dx%d",
					i, l.Name, nx, ny, s.Nx, s.Ny)
			}
		}
	}
	if s.TopH <= 0 && s.BottomH <= 0 {
		return fmt.Errorf("thermal: no convective path to ambient")
	}
	return nil
}

// TotalPower sums all layers' power maps in watts.
func (s *Stack) TotalPower() float64 {
	sum := 0.0
	for _, l := range s.Layers {
		if l.Power != nil {
			sum += l.Power.Total()
		}
	}
	return sum
}

// LayerIndex returns the index of the first layer with the given name,
// or -1.
func (s *Stack) LayerIndex(name string) int {
	for i, l := range s.Layers {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// The package column dimensions: the heat-sink base / IHS
// footprint shared by every configuration, independent of die size.
const (
	DefaultPackageW = 24e-3
	DefaultPackageH = 24e-3
)

// StackOptions tunes the standard assemblies built below.
type StackOptions struct {
	// Nx, Ny default to 64x64.
	Nx, Ny int
	// CuMetalK overrides the Table 2 Cu-metal conductivity for the
	// Figure 3 sensitivity sweep (zero keeps the default).
	CuMetalK float64
	// BondK overrides the bonding-layer conductivity (3D stacks only).
	BondK float64
	// TopH overrides the heat-sink film coefficient (zero keeps
	// DefaultTopH). The Logic+Logic study's processor ships with a
	// higher-performance cooler than the desktop Core-2-class part —
	// see PerformanceTopH.
	TopH float64
}

func (o StackOptions) grid() (int, int) {
	nx, ny := o.Nx, o.Ny
	if nx == 0 {
		nx = 64
	}
	if ny == 0 {
		ny = 64
	}
	return nx, ny
}

func (o StackOptions) cuMetal() Material {
	if o.CuMetalK > 0 {
		return Material{Name: CuMetal.Name, Conductivity: o.CuMetalK, HeatCapacity: CuMetal.HeatCapacity}
	}
	return CuMetal
}

func (o StackOptions) bond() Material {
	if o.BondK > 0 {
		return Material{Name: BondLayer.Name, Conductivity: o.BondK, HeatCapacity: BondLayer.HeatCapacity}
	}
	return BondLayer
}

func (o StackOptions) topH() float64 {
	if o.TopH > 0 {
		return o.TopH
	}
	return DefaultTopH
}

// CenteredDie returns the extent of a dieW x dieH die centered in the
// package column.
func CenteredDie(pkgW, pkgH, dieW, dieH float64) Rect {
	return Rect{X: (pkgW - dieW) / 2, Y: (pkgH - dieH) / 2, W: dieW, H: dieH}
}

// coolingAssemblyTop returns the layers above the die: heat sink, TIM,
// IHS (Figure 2, from the outside in). These span the full package
// column — that lateral spreading is what keeps small dies coolable.
func coolingAssemblyTop() []Layer {
	return []Layer{
		{Name: "heat sink", Thickness: 5e-3, Material: HeatSinkMetal},
		{Name: "TIM2", Thickness: 25e-6, Material: TIM},
		{Name: "IHS", Thickness: 3e-3, Material: CopperIHS},
	}
}

// packageAssemblyBottom returns the layers below the die: package
// substrate, socket, motherboard (full column).
func packageAssemblyBottom() []Layer {
	return []Layer{
		{Name: "package", Thickness: 1.2e-3, Material: PackageSub},
		{Name: "socket", Thickness: 2e-3, Material: Socket},
		{Name: "motherboard", Thickness: 1.6e-3, Material: Motherboard},
	}
}

// PlanarStack builds the 2D reference assembly: a single die (bulk Si,
// active layer with the given power map, Cu metal) centered in the
// Figure 2 package system. The power map is defined on the package
// grid (use the floorplan rasterization helpers).
func PlanarStack(dieW, dieH float64, power *PowerMap, opt StackOptions) *Stack {
	nx, ny := opt.grid()
	die := CenteredDie(DefaultPackageW, DefaultPackageH, dieW, dieH)
	layers := coolingAssemblyTop()
	layers = append(layers,
		Layer{Name: "TIM1", Thickness: 25e-6, Material: TIM, Extent: die},
		Layer{Name: "bulk Si", Thickness: Si1Thickness, Material: Silicon, Extent: die},
		Layer{Name: "active", Thickness: ActiveThickness, Material: Silicon, Extent: die, Power: power},
		Layer{Name: "Cu metal", Thickness: CuMetalThickness, Material: opt.cuMetal(), Extent: die},
		Layer{Name: "C4/underfill", Thickness: 80e-6, Material: Underfill, Extent: die},
	)
	layers = append(layers, packageAssemblyBottom()...)
	return &Stack{
		Width: DefaultPackageW, Height: DefaultPackageH, Nx: nx, Ny: ny,
		Layers:   layers,
		TopH:     opt.topH(),
		BottomH:  DefaultBottomH,
		AmbientC: AmbientC,
	}
}

// DieSpec describes one die in a two-die stack: its active power map
// (on the package grid) and the metal technology above its
// transistors.
type DieSpec struct {
	Power *PowerMap
	// Metal is the die's wiring stack (CuMetal for logic, AlMetal for
	// DRAM); MetalThickness its height.
	Metal          Material
	MetalThickness float64
}

// LogicDie builds a DieSpec for a logic die with the given power map.
func LogicDie(power *PowerMap) DieSpec {
	return DieSpec{Power: power, Metal: CuMetal, MetalThickness: CuMetalThickness}
}

// DRAMDie builds a DieSpec for a DRAM die with the given power map.
func DRAMDie(power *PowerMap) DieSpec {
	return DieSpec{Power: power, Metal: AlMetal, MetalThickness: AlMetalThickness}
}

// SRAMDie builds a DieSpec for a stacked SRAM die (logic process).
func SRAMDie(power *PowerMap) DieSpec {
	return DieSpec{Power: power, Metal: CuMetal, MetalThickness: CuMetalThickness}
}

// ThreeDStack builds the Figure 1 face-to-face two-die assembly inside
// the Figure 2 package system. topDie sits next to the heat sink
// (Si #1, 750 um bulk); bottomDie is thinned (Si #2, 20 um) next to
// the C4 bumps. The metal stacks of the two dies face each other
// across the bonding layer:
//
//	heat sink ... / bulk Si #1 / active #1 / metal #1 / bond /
//	metal #2 / active #2 / bulk Si #2 / C4 ... motherboard
//
// The paper places the highest-power die next to the heat sink, so
// callers typically pass the processor as topDie. Both dies share the
// dieW x dieH footprint centered in the package.
func ThreeDStack(dieW, dieH float64, topDie, bottomDie DieSpec, opt StackOptions) *Stack {
	nx, ny := opt.grid()
	die := CenteredDie(DefaultPackageW, DefaultPackageH, dieW, dieH)
	layers := coolingAssemblyTop()
	topMetal := topDie.Metal
	if topMetal.Name == CuMetal.Name && opt.CuMetalK > 0 {
		topMetal = opt.cuMetal()
	}
	bottomMetal := bottomDie.Metal
	if bottomMetal.Name == CuMetal.Name && opt.CuMetalK > 0 {
		bottomMetal = opt.cuMetal()
	}
	layers = append(layers,
		Layer{Name: "TIM1", Thickness: 25e-6, Material: TIM, Extent: die},
		Layer{Name: "bulk Si #1", Thickness: Si1Thickness, Material: Silicon, Extent: die},
		Layer{Name: "active #1", Thickness: ActiveThickness, Material: Silicon, Extent: die, Power: topDie.Power},
		Layer{Name: "metal #1", Thickness: topDie.MetalThickness, Material: topMetal, Extent: die},
		Layer{Name: "bond", Thickness: BondThickness, Material: opt.bond(), Extent: die},
		Layer{Name: "metal #2", Thickness: bottomDie.MetalThickness, Material: bottomMetal, Extent: die},
		Layer{Name: "active #2", Thickness: ActiveThickness, Material: Silicon, Extent: die, Power: bottomDie.Power},
		Layer{Name: "bulk Si #2", Thickness: Si2Thickness, Material: Silicon, Extent: die},
		Layer{Name: "C4/underfill", Thickness: 80e-6, Material: Underfill, Extent: die},
	)
	layers = append(layers, packageAssemblyBottom()...)
	return &Stack{
		Width: DefaultPackageW, Height: DefaultPackageH, Nx: nx, Ny: ny,
		Layers:   layers,
		TopH:     opt.topH(),
		BottomH:  DefaultBottomH,
		AmbientC: AmbientC,
	}
}
