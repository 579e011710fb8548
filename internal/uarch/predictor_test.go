package uarch

import (
	"context"
	"testing"
)

// branchProg builds an all-branch program whose direction comes from
// pattern(i); PCs cycle over nPCs static branches.
func branchProg(n, nPCs int, pattern func(i int) bool) []Inst {
	prog := make([]Inst, n)
	for i := range prog {
		prog[i] = Inst{
			Op:    OpBranch,
			PC:    uint32(i%nPCs) * 4,
			Taken: pattern(i),
		}
	}
	return prog
}

func predictorCfg() Config {
	cfg := PlanarConfig()
	cfg.Predictor = &PredictorConfig{TableBits: 12, HistoryBits: 8}
	return cfg
}

func TestPredictorConfigValidate(t *testing.T) {
	if (PredictorConfig{TableBits: 12, HistoryBits: 4}).Validate() != nil {
		t.Error("valid config rejected")
	}
	if (PredictorConfig{TableBits: 0, HistoryBits: 0}).Validate() == nil {
		t.Error("0 table bits accepted")
	}
	if (PredictorConfig{TableBits: 30}).Validate() == nil {
		t.Error("30 table bits accepted")
	}
	if (PredictorConfig{TableBits: 8, HistoryBits: 9}).Validate() == nil {
		t.Error("history > table accepted")
	}
	bad := predictorCfg()
	bad.Predictor.HistoryBits = -1
	if bad.Validate() == nil {
		t.Error("config with bad predictor accepted")
	}
}

func TestPredictorLearnsBias(t *testing.T) {
	// Strongly biased branches: after warmup nearly everything is
	// predicted correctly.
	res, err := Run(context.Background(), predictorCfg(), branchProg(50_000, 16, func(i int) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Mispredicts) / 50_000
	if rate > 0.01 {
		t.Fatalf("biased-branch mispredict rate %.3f, want ~0", rate)
	}
}

func TestPredictorLearnsPattern(t *testing.T) {
	// A short repeating pattern is captured by the global history.
	res, err := Run(context.Background(), predictorCfg(), branchProg(50_000, 4, func(i int) bool { return i%3 == 0 }))
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Mispredicts) / 50_000
	if rate > 0.05 {
		t.Fatalf("patterned-branch mispredict rate %.3f, want near 0", rate)
	}
}

func TestPredictorStrugglesOnNoise(t *testing.T) {
	// Pseudo-random directions defeat any predictor: the rate must be
	// far above the patterned case.
	lcg := uint32(12345)
	res, err := Run(context.Background(), predictorCfg(), branchProg(50_000, 64, func(i int) bool {
		lcg = lcg*1664525 + 1013904223
		return lcg&0x80000000 != 0
	}))
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Mispredicts) / 50_000
	if rate < 0.25 {
		t.Fatalf("random-branch mispredict rate %.3f, implausibly low", rate)
	}
}

func TestPredictorModeIgnoresAnnotations(t *testing.T) {
	// Annotated mispredictions are ignored in predictor mode.
	prog := branchProg(20_000, 8, func(i int) bool { return true })
	for i := range prog {
		prog[i].Mispredicted = true // would redirect on every branch
	}
	res, err := Run(context.Background(), predictorCfg(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Mispredicts)/20_000 > 0.01 {
		t.Fatalf("annotations leaked into predictor mode: %d mispredicts", res.Mispredicts)
	}
	// And vice versa: annotated mode ignores PC/Taken.
	annotated, err := Run(context.Background(), PlanarConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if annotated.Mispredicts != 20_000 {
		t.Fatalf("annotated mode mispredicts = %d, want all", annotated.Mispredicts)
	}
}

func TestGshareAliasing(t *testing.T) {
	// Sanity on the raw structure: training one PC should not corrupt
	// a far PC under distinct histories too badly; mostly this pins
	// the update/predict contract.
	g := newGshare(PredictorConfig{TableBits: 10, HistoryBits: 4})
	for i := 0; i < 1000; i++ {
		g.update(0x40, true)
	}
	if !g.predict(0x40) {
		t.Fatal("trained branch predicted not-taken")
	}
}
