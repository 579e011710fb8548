package uarch_test

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"diestack/internal/uarch"
	"diestack/internal/uarch/synth"
)

// ringConfigs are the machines the ring oracle runs: planar, each
// Table 4 group's fold, the full fold, predictor mode, and a narrow
// window that retires wider than its ROB, so the rings are sized by
// RetireWidth.
func ringConfigs() map[string]uarch.Config {
	planar := uarch.PlanarConfig()
	cfgs := map[string]uarch.Config{"planar": planar, "full fold": planar.Apply(uarch.FullFold())}
	for _, g := range synth.Table4Groups() {
		cfgs[g.Name] = planar.Apply(g.Fold)
	}
	pred := planar
	pred.Predictor = uarch.DefaultPredictor()
	cfgs["predictor"] = pred
	narrow := planar
	narrow.ROBSize, narrow.RetireWidth = 3, 16
	// With no post-retirement stages and zero-latency ops, an
	// instruction can retire in the cycle its ROB entry frees, so the
	// retire-width bound binds.
	narrow.RetireDeallocStages, narrow.SIMDLatency, narrow.DCacheStages = 0, 0, 0
	cfgs["narrow ROB, wide retire"] = narrow
	return cfgs
}

// adversarialProgram mixes every op type, main-memory loads included,
// with dependences at distance 1, rob-1, rob, rob+1 and back to
// instruction 0, and store bursts long enough to fill the store queue.
func adversarialProgram(seed uint64, n, rob int) []uarch.Inst {
	rng := rand.New(rand.NewPCG(seed, 1))
	prog := make([]uarch.Inst, n)
	burst := 0
	for i := range prog {
		var in uarch.Inst
		switch {
		case burst > 0:
			in.Op = uarch.OpStore
			burst--
		case rng.IntN(40) == 0:
			in.Op = uarch.OpStore
			burst = 10 + rng.IntN(30)
		default:
			in.Op = uarch.OpType(rng.IntN(6))
		}
		in.Mem = uarch.MemClass(rng.IntN(3))
		in.FeedsFP = rng.IntN(2) == 0
		in.Mispredicted = rng.IntN(8) == 0
		in.PC = uint32(rng.IntN(64))
		in.Taken = rng.IntN(3) != 0
		dist := []int{1, rob - 1, rob, rob + 1, i}
		if i > 0 {
			in.Dep1 = int32(dist[rng.IntN(len(dist))])
			if rng.IntN(2) == 0 {
				in.Dep2 = int32(dist[rng.IntN(len(dist))])
			}
		}
		prog[i] = in
	}
	return prog
}

// TestRunMatchesReference holds the ring-buffered Run to the
// per-instruction-array reference, field for field, on adversarial
// programs: the dependences Run skips reach back at least ROBSize
// instructions, and must never have delayed issue.
func TestRunMatchesReference(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range ringConfigs() {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, dep := range []int{0, 1, cfg.ROBSize - 1, cfg.ROBSize, cfg.ROBSize + 1} {
				var prog []uarch.Inst
				if dep == 0 {
					prog = adversarialProgram(seed, 20_000, cfg.ROBSize)
				} else {
					// One fixed distance throughout, behind slow loads.
					prog = make([]uarch.Inst, 5_000)
					for i := range prog {
						prog[i] = uarch.Inst{Op: uarch.OpLoad, Mem: uarch.MemMain, Dep1: int32(dep)}
						if i%7 == 3 {
							prog[i] = uarch.Inst{Op: uarch.OpStore, Dep1: int32(i)}
						}
					}
				}
				got, err := uarch.Run(ctx, cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				want, err := uarch.ReferenceRun(ctx, cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s, seed %d, dep %d: Run = %+v, reference = %+v", name, seed, dep, got, want)
				}
			}
		}
	}
}

// TestRunMemoryFlatInProgram checks that Run's allocation does not
// grow with the program: a 200k-instruction program allocates within
// 1 KB of a 10k one.
func TestRunMemoryFlatInProgram(t *testing.T) {
	ctx := context.Background()
	cfg := uarch.PlanarConfig()
	cfg.Predictor = uarch.DefaultPredictor()
	bytes := func(n int) uint64 {
		prog := adversarialProgram(1, n, cfg.ROBSize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := uarch.Run(ctx, cfg, prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytes(10_000), bytes(200_000)
	t.Logf("Run allocated %d B for 10k instructions, %d B for 200k", small, large)
	if large > small+1024 {
		t.Errorf("Run allocated %d B for 200k instructions, %d B for 10k; want within 1 KB", large, small)
	}
}
