// Package uarch implements the cycle-level performance model of the
// deeply pipelined Pentium 4-class microarchitecture used for the
// Logic+Logic stacking study (Section 4, Table 4 of the paper).
//
// The model is an instruction-grain timing simulator: every
// instruction's fetch, rename, issue, completion, and retirement times
// are computed in one pass, honoring data dependences, a finite
// reorder window, finite store-queue occupancy (with the paper's
// post-retirement store lifetime), branch-misprediction redirects
// through the full front-end depth, and per-path wire-delay pipe
// stages. Each Table 4 functionality group is an explicit latency
// parameter, so folding the floorplan onto two dies is expressed as a
// reduction of exactly those parameters — the same mechanism that
// produces the paper's IPC gains.
package uarch

import (
	"context"
	"fmt"
	"math/bits"
)

// OpType classifies instructions for the timing model.
type OpType uint8

const (
	// OpInt is a single-cycle integer ALU operation.
	OpInt OpType = iota
	// OpFP is a floating-point operation.
	OpFP
	// OpSIMD is a packed-SIMD operation.
	OpSIMD
	// OpLoad is a memory read.
	OpLoad
	// OpStore is a memory write.
	OpStore
	// OpBranch is a conditional branch.
	OpBranch
)

// String names the op type.
func (o OpType) String() string {
	switch o {
	case OpInt:
		return "int"
	case OpFP:
		return "fp"
	case OpSIMD:
		return "simd"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(o))
	}
}

// MemClass classifies where a load is satisfied.
type MemClass uint8

const (
	// MemL1 hits the first-level data cache.
	MemL1 MemClass = iota
	// MemL2 hits the second-level cache.
	MemL2
	// MemMain goes to main memory.
	MemMain
)

// Inst is one instruction of a synthetic program. Dependences are
// expressed as backwards distances in instructions (0 = no
// dependence), the standard trace-format encoding.
type Inst struct {
	Op         OpType
	Dep1, Dep2 int32
	// Mem classifies loads (ignored otherwise).
	Mem MemClass
	// Mispredicted marks branches that redirect the front end
	// (annotated-trace mode; ignored when a predictor is configured).
	Mispredicted bool
	// PC identifies the branch's static instruction for the predictor,
	// and Taken its resolved direction (predictor mode only).
	PC    uint32
	Taken bool
	// FeedsFP marks loads whose consumer is the FP unit (the paper's
	// "FP load latency" path).
	FeedsFP bool
}

// Config parameterizes the pipeline. All latencies are in cycles; the
// Table 4 functionality groups are called out explicitly.
type Config struct {
	// Widths.
	FetchWidth, IssueWidth, RetireWidth int
	// Window sizes.
	ROBSize, StoreQueue, Scheduler int

	// Front-end pipeline depth (Table 4 "Front-end pipeline").
	FrontEndStages int
	// Trace-cache read stages (Table 4 "Trace cache read").
	TraceCacheStages int
	// Rename/allocate stages (Table 4 "Rename allocation").
	RenameStages int
	// Integer register-file read stages (Table 4 "Int register file
	// read"). Results are bypassed, so dependent ALU chains do not pay
	// it; it extends the branch-resolution path and the in-flight
	// depth.
	IntRFStages int
	// Data-cache read stages (Table 4 "Data cache read"): the
	// load-to-use latency of an L1 hit.
	DCacheStages int
	// FPLatency is the FP unit's execute latency including the wire
	// stages of the register-read path (Table 4 "FP inst. latency":
	// the planar floorplan adds two cycles of wire between RF and FP).
	FPLatency int
	// FPLoadExtra is the additional forwarding latency of a load whose
	// consumer is the FP unit (Table 4 "FP load latency").
	FPLoadExtra int
	// SIMDLatency is the SIMD execute latency.
	SIMDLatency int
	// LoopStages is the mispredict resolution loop beyond the
	// front-end depth (Table 4 "Instruction loop").
	LoopStages int
	// RetireDeallocStages is the post-retirement pipeline before an
	// entry's resources free (Table 4 "Retire to de-allocation").
	RetireDeallocStages int
	// StoreLifetime is how long a retired store occupies its store
	// queue entry before the entry recycles (Table 4 "Store
	// lifetime").
	StoreLifetime int

	// Memory hierarchy beyond the L1 (loads only).
	L2Latency, MemLatency int

	// Predictor, when non-nil, replaces the trace's Mispredicted
	// annotations with a modeled gshare predictor driven by each
	// branch's PC and Taken outcome.
	Predictor *PredictorConfig
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("uarch: non-positive width in %+v", c)
	}
	if c.ROBSize <= 0 || c.StoreQueue <= 0 || c.Scheduler <= 0 {
		return fmt.Errorf("uarch: non-positive window in %+v", c)
	}
	for _, v := range []int{
		c.FrontEndStages, c.TraceCacheStages, c.RenameStages, c.IntRFStages,
		c.DCacheStages, c.FPLatency, c.FPLoadExtra, c.SIMDLatency,
		c.LoopStages, c.RetireDeallocStages, c.StoreLifetime,
		c.L2Latency, c.MemLatency,
	} {
		if v < 0 {
			return fmt.Errorf("uarch: negative latency in %+v", c)
		}
	}
	if c.Predictor != nil {
		if err := c.Predictor.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// FrontEndDepth is the fetch-to-rename-complete depth: the pipeline a
// mispredict must refill.
func (c Config) FrontEndDepth() int {
	return c.FrontEndStages + c.TraceCacheStages + c.RenameStages
}

// MispredictPenalty is the full branch loop: the branch's register
// read and execute, the resolution loop back to fetch, and the
// front-end refill (the paper: "more than 30 clock cycles").
func (c Config) MispredictPenalty() int {
	return c.IntRFStages + 1 + c.LoopStages + c.FrontEndDepth()
}

// PlanarConfig returns the planar Pentium 4-class machine: deep
// pipeline, >30-cycle mispredict loop, two cycles of RF-to-FP wire
// folded into FPLatency, and a long post-retirement store lifetime.
func PlanarConfig() Config {
	return Config{
		FetchWidth: 3, IssueWidth: 4, RetireWidth: 3,
		ROBSize: 80, StoreQueue: 12, Scheduler: 48,

		FrontEndStages:      8,
		TraceCacheStages:    5,
		RenameStages:        4,
		IntRFStages:         4,
		DCacheStages:        4,
		FPLatency:           8, // 6-cycle unit + 2 cycles of planar wire
		FPLoadExtra:         8,
		SIMDLatency:         3,
		LoopStages:          12,
		RetireDeallocStages: 10,
		StoreLifetime:       24,

		L2Latency:  18,
		MemLatency: 300,
	}
}

// Fold describes which Table 4 stage eliminations to apply. Each field
// enables one functionality group's reduction.
type Fold struct {
	FrontEnd    bool // 12.5%: 8 -> 7 stages
	TraceCache  bool // 20%:  5 -> 4
	Rename      bool // 25%:  4 -> 3
	FPLatency   bool // the 2 cycles of RF-to-FP wire vanish: 8 -> 6
	IntRF       bool // 25%:  4 -> 3
	DCache      bool // 25%:  4 -> 3 (load-to-use)
	Loop        bool // 17%:  12 -> 10
	RetireDealc bool // 20%:  10 -> 8
	FPLoad      bool // 37.5%: 8 -> 5 (forwarding to FP folded above D$)
	StoreLife   bool // 29%:  24 -> 17
}

// FullFold enables every Table 4 group — the complete 3D floorplan.
func FullFold() Fold {
	return Fold{
		FrontEnd: true, TraceCache: true, Rename: true, FPLatency: true,
		IntRF: true, DCache: true, Loop: true, RetireDealc: true,
		FPLoad: true, StoreLife: true,
	}
}

// Apply returns the configuration with the fold's stage eliminations.
func (c Config) Apply(f Fold) Config {
	if f.FrontEnd {
		c.FrontEndStages -= 1
	}
	if f.TraceCache {
		c.TraceCacheStages -= 1
	}
	if f.Rename {
		c.RenameStages -= 1
	}
	if f.FPLatency {
		c.FPLatency -= 2
	}
	if f.IntRF {
		c.IntRFStages -= 1
	}
	if f.DCache {
		c.DCacheStages -= 1
	}
	if f.Loop {
		c.LoopStages -= 2
	}
	if f.RetireDealc {
		c.RetireDeallocStages -= 2
	}
	if f.FPLoad {
		c.FPLoadExtra -= 3
	}
	if f.StoreLife {
		c.StoreLifetime -= 7
	}
	return c
}

// StagesEliminated reports how many pipe stages the fold removes and
// the planar total over the Table 4 functionality groups, so the
// "% of stages eliminated" can be reported like the paper does.
func (c Config) StagesEliminated(f Fold) (removed, total int) {
	folded := c.Apply(f)
	groups := [][2]int{
		{c.FrontEndStages, folded.FrontEndStages},
		{c.TraceCacheStages, folded.TraceCacheStages},
		{c.RenameStages, folded.RenameStages},
		{c.FPLatency, folded.FPLatency},
		{c.IntRFStages, folded.IntRFStages},
		{c.DCacheStages, folded.DCacheStages},
		{c.LoopStages, folded.LoopStages},
		{c.RetireDeallocStages, folded.RetireDeallocStages},
		{c.FPLoadExtra, folded.FPLoadExtra},
		{c.StoreLifetime, folded.StoreLifetime},
	}
	for _, g := range groups {
		total += g[0]
		removed += g[0] - g[1]
	}
	return removed, total
}

// Result summarizes one simulation.
type Result struct {
	Insts  uint64
	Cycles int64
	IPC    float64
	// Mispredicts counts redirecting branches.
	Mispredicts uint64
	// Loads per memory class.
	L1Loads, L2Loads, MemLoads uint64
}

// Run executes the program on the configured pipeline and returns its
// timing, with cooperative cancellation checked every few thousand
// instructions. The model is deterministic.
//
// Run keeps each instruction's completion and retirement times only
// while a later instruction can still read them, in rings of the
// smallest power of two above max(ROBSize, RetireWidth) indexed by
// i & mask, so its memory does not grow with the program. Retirement
// reads back RetireWidth instructions and rename ROBSize (an entry's
// deallocation is its retirement plus RetireDeallocStages). A data
// dependence reaching back d >= ROBSize instructions, to j <= i-ROBSize,
// is skipped, exactly: complete[j] <= retire[j] (an instruction retires
// no earlier than it completes), retire never decreases, and
// RetireDeallocStages >= 0 (Validate enforces it), so
//
//	complete[j] <= retire[j] <= retire[i-ROBSize] <= dealloc[i-ROBSize] <= rename <= issue,
//
// and the dependence could never have delayed issue.
func Run(ctx context.Context, cfg Config, prog []Inst) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := len(prog)
	if n == 0 {
		return Result{}, nil
	}

	ringSize := 1 << bits.Len(uint(max(cfg.ROBSize, cfg.RetireWidth)))
	mask := ringSize - 1
	complete := make([]int64, ringSize)
	retire := make([]int64, ringSize)
	deallocStages := int64(cfg.RetireDeallocStages)

	// Store-queue entry release times, ring-indexed by store ordinal.
	storeFree := make([]int64, cfg.StoreQueue)
	// Scheduler occupancy: issue times ring-indexed by instruction.
	schedFree := make([]int64, cfg.Scheduler)
	// Each ring's position: the instruction's (or, for the store queue,
	// the store's) ordinal modulo the ring's size, advanced by ringNext.
	fetchPos, schedPos, storePos := 0, 0, 0

	feDepth := int64(cfg.FrontEndDepth())
	var redirect int64 // earliest fetch time after a mispredict
	var res Result
	var bp *gshare
	if cfg.Predictor != nil {
		bp = newGshare(*cfg.Predictor)
	}

	// Fetch ring: at most FetchWidth instructions per cycle, resuming
	// sequentially after a redirect.
	fetchRing := make([]int64, cfg.FetchWidth)
	for i := range fetchRing {
		fetchRing[i] = -1
	}

	for i := 0; i < n; i++ {
		if i%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("uarch: canceled at instruction %d: %w", i, err)
			}
		}
		in := prog[i]

		// Fetch: width-limited, in order, after any pending redirect.
		fetch := fetchRing[fetchPos] + 1
		if redirect > fetch {
			fetch = redirect
		}
		fetchRing[fetchPos] = fetch
		fetchPos = ringNext(fetchPos, cfg.FetchWidth)
		// Rename completes after the front end; the ROB entry for this
		// instruction needs the entry of (i - ROBSize) deallocated.
		rename := fetch + feDepth
		if j := i - cfg.ROBSize; j >= 0 && retire[j&mask]+deallocStages > rename {
			rename = retire[j&mask] + deallocStages
		}
		// Stores additionally need a store-queue entry; entries recycle
		// StoreLifetime cycles after the previous owner retired.
		if in.Op == OpStore {
			if free := storeFree[storePos]; free > rename {
				rename = free
			}
		}

		// Issue: data dependences and scheduler occupancy.
		issue := rename
		if d := int(in.Dep1); d > 0 && d < cfg.ROBSize {
			if j := i - d; j >= 0 && complete[j&mask] > issue {
				issue = complete[j&mask]
			}
		}
		if d := int(in.Dep2); d > 0 && d < cfg.ROBSize {
			if j := i - d; j >= 0 && complete[j&mask] > issue {
				issue = complete[j&mask]
			}
		}
		// Scheduler: at most Scheduler instructions between rename and
		// issue; reuse the slot of instruction i-Scheduler.
		if schedFree[schedPos] > issue {
			issue = schedFree[schedPos]
		}
		// Issue width: approximate by one extra cycle every IssueWidth
		// instructions that issue in the same cycle — handled by the
		// fetch width bound upstream, which is tighter in practice.

		// Execute.
		var lat int64
		switch in.Op {
		case OpInt:
			// ALU results are bypassed: dependent chains see one cycle.
			lat = 1
		case OpBranch:
			// Branch resolution reads the register file (no bypass into
			// the redirect path) and executes.
			lat = int64(cfg.IntRFStages) + 1
		case OpFP:
			lat = int64(cfg.FPLatency)
		case OpSIMD:
			lat = int64(cfg.SIMDLatency)
		case OpLoad:
			lat = int64(cfg.DCacheStages)
			switch in.Mem {
			case MemL2:
				lat += int64(cfg.L2Latency)
				res.L2Loads++
			case MemMain:
				lat += int64(cfg.MemLatency)
				res.MemLoads++
			default:
				res.L1Loads++
			}
			if in.FeedsFP {
				lat += int64(cfg.FPLoadExtra)
			}
		case OpStore:
			lat = 1 // address+data capture; memory update is post-retirement
		default:
			return Result{}, fmt.Errorf("uarch: unknown op %v at %d", in.Op, i)
		}
		done := issue + lat
		complete[i&mask] = done
		schedFree[schedPos] = issue + 1
		schedPos = ringNext(schedPos, cfg.Scheduler)

		// Mispredicted branches redirect fetch after the resolution loop.
		if in.Op == OpBranch {
			miss := in.Mispredicted
			if bp != nil {
				miss = bp.predict(in.PC) != in.Taken
				bp.update(in.PC, in.Taken)
			}
			if miss {
				r := done + int64(cfg.LoopStages)
				if r > redirect {
					redirect = r
				}
				res.Mispredicts++
			}
		}

		// Retire: in order, width-limited.
		ret := done
		if i > 0 && retire[(i-1)&mask] > ret {
			ret = retire[(i-1)&mask]
		}
		if j := i - cfg.RetireWidth; j >= 0 && retire[j&mask]+1 > ret {
			ret = retire[j&mask] + 1
		}
		retire[i&mask] = ret
		if in.Op == OpStore {
			storeFree[storePos] = ret + int64(cfg.StoreLifetime)
			storePos = ringNext(storePos, cfg.StoreQueue)
		}
	}

	res.Insts = uint64(n)
	res.Cycles = retire[(n-1)&mask]
	if res.Cycles > 0 {
		res.IPC = float64(n) / float64(res.Cycles)
	}
	return res, nil
}

// ringNext advances a position in a ring of n slots. It is (p+1) % n
// for 0 <= p < n, without the division.
func ringNext(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}
