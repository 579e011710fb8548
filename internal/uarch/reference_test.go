package uarch

import (
	"context"
	"fmt"
)

// ReferenceRun is Run as it was before its timing arrays became rings:
// complete, retire and dealloc times kept for every instruction, and
// every data dependence looked up however far back it reaches. The
// tests hold Run to it field for field.
func ReferenceRun(ctx context.Context, cfg Config, prog []Inst) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := len(prog)
	if n == 0 {
		return Result{}, nil
	}

	complete := make([]int64, n)
	retire := make([]int64, n)
	dealloc := make([]int64, n)

	storeFree := make([]int64, cfg.StoreQueue)
	storeCount := 0
	schedFree := make([]int64, cfg.Scheduler)

	feDepth := int64(cfg.FrontEndDepth())
	var redirect int64
	var res Result
	var bp *gshare
	if cfg.Predictor != nil {
		bp = newGshare(*cfg.Predictor)
	}

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

		fetch := fetchRing[i%cfg.FetchWidth] + 1
		if redirect > fetch {
			fetch = redirect
		}
		fetchRing[i%cfg.FetchWidth] = fetch
		rename := fetch + feDepth
		if j := i - cfg.ROBSize; j >= 0 && dealloc[j] > rename {
			rename = dealloc[j]
		}
		if in.Op == OpStore {
			if free := storeFree[storeCount%cfg.StoreQueue]; free > rename {
				rename = free
			}
		}

		issue := rename
		if in.Dep1 > 0 {
			if j := i - int(in.Dep1); j >= 0 && complete[j] > issue {
				issue = complete[j]
			}
		}
		if in.Dep2 > 0 {
			if j := i - int(in.Dep2); j >= 0 && complete[j] > issue {
				issue = complete[j]
			}
		}
		slot := i % cfg.Scheduler
		if schedFree[slot] > issue {
			issue = schedFree[slot]
		}

		var lat int64
		switch in.Op {
		case OpInt:
			lat = 1
		case OpBranch:
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
			lat = 1
		default:
			return Result{}, fmt.Errorf("uarch: unknown op %v at %d", in.Op, i)
		}
		done := issue + lat
		complete[i] = done
		schedFree[slot] = issue + 1

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

		ret := done
		if i > 0 && retire[i-1] > ret {
			ret = retire[i-1]
		}
		if j := i - cfg.RetireWidth; j >= 0 && retire[j]+1 > ret {
			ret = retire[j] + 1
		}
		retire[i] = ret
		dealloc[i] = ret + int64(cfg.RetireDeallocStages)
		if in.Op == OpStore {
			storeFree[storeCount%cfg.StoreQueue] = ret + int64(cfg.StoreLifetime)
			storeCount++
		}
	}

	res.Insts = uint64(n)
	res.Cycles = retire[n-1]
	if res.Cycles > 0 {
		res.IPC = float64(n) / float64(res.Cycles)
	}
	return res, nil
}
