package memhier

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"diestack/internal/fault"
	"diestack/internal/trace"
)

// l2WorkingSetTrace walks a working set that overflows the 32 KB L1
// but fits comfortably in any stacked DRAM L2, so steady-state traffic
// exercises the DRAM-cache hit path the ECC model guards.
func l2WorkingSetTrace(n int) []trace.Record {
	const lines = 4096 // 256 KB working set at 64 B per reference
	return seqTrace(n, 2, func(i int) uint64 { return uint64(i%lines) * 64 })
}

func runFaulty(t *testing.T, fc fault.Config, recs []trace.Record) Result {
	t.Helper()
	cfg := StackedDRAMConfig(32)
	cfg.Faults = fc
	res, err := mustSim(t, cfg).Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUncorrectableStormCompletesDegraded(t *testing.T) {
	recs := l2WorkingSetTrace(60000)
	clean := runFaulty(t, fault.Config{}, recs)

	// 2% of stacked-DRAM reads uncorrectable: every one costs a line
	// invalidate plus at least one main-memory refetch.
	storm := runFaulty(t, fault.Config{Seed: 1, UncorrectablePerMAccess: 20000}, recs)

	if storm.Refs != clean.Refs {
		t.Fatalf("storm replayed %d refs, clean %d", storm.Refs, clean.Refs)
	}
	if storm.CPMA <= clean.CPMA {
		t.Fatalf("storm CPMA %.3f not above clean %.3f", storm.CPMA, clean.CPMA)
	}
	fs := storm.Faults
	if fs.ECCChecks == 0 || fs.Uncorrectable == 0 {
		t.Fatalf("no ECC activity recorded: %+v", fs)
	}
	if fs.LinesPoisoned == 0 || fs.Refetches == 0 {
		t.Fatalf("uncorrectables without recovery work: %+v", fs)
	}
	if fs.Refetches < fs.Uncorrectable {
		t.Fatalf("%d uncorrectables but only %d refetches", fs.Uncorrectable, fs.Refetches)
	}
	if clean.Faults != (fault.Stats{}) {
		t.Fatalf("clean run reported fault stats: %+v", clean.Faults)
	}
}

func TestCorrectableErrorsAddLatencyOnly(t *testing.T) {
	recs := l2WorkingSetTrace(60000)
	clean := runFaulty(t, fault.Config{}, recs)
	// 10% correctable: frequent extra-latency retries, no invalidations.
	res := runFaulty(t, fault.Config{Seed: 2, CorrectablePerMAccess: 100000}, recs)

	fs := res.Faults
	if fs.Corrected == 0 || fs.RetryCyclesAdded == 0 {
		t.Fatalf("no corrections recorded: %+v", fs)
	}
	if fs.Uncorrectable != 0 || fs.LinesPoisoned != 0 || fs.Refetches != 0 {
		t.Fatalf("correctable-only config caused recovery: %+v", fs)
	}
	if res.CPMA <= clean.CPMA {
		t.Fatalf("corrections free: CPMA %.3f vs clean %.3f", res.CPMA, clean.CPMA)
	}
	// Corrections must cost less than invalidate+refetch storms do.
	if res.OffDieBytes != clean.OffDieBytes {
		t.Fatalf("corrections moved off-die traffic: %d vs %d",
			res.OffDieBytes, clean.OffDieBytes)
	}
}

func TestDeadBanksAndTSVDegradeCPMA(t *testing.T) {
	recs := l2WorkingSetTrace(60000)
	clean := runFaulty(t, fault.Config{}, recs)
	res := runFaulty(t, fault.Config{
		Seed:        3,
		DeadBanks:   []int{0, 1, 2, 3, 4, 5, 6, 7},
		TSVFailFrac: 0.5,
	}, recs)

	if res.DRAMCache.Remapped == 0 {
		t.Fatal("no accesses remapped off the dead banks")
	}
	if res.DRAMCache.FaultCycles == 0 {
		t.Fatal("no TSV widening cycles recorded")
	}
	if res.CPMA <= clean.CPMA {
		t.Fatalf("degraded device CPMA %.3f not above clean %.3f", res.CPMA, clean.CPMA)
	}
}

func TestFaultyRunDeterministic(t *testing.T) {
	recs := l2WorkingSetTrace(40000)
	fc := fault.Config{
		Seed:                    7,
		CorrectablePerMAccess:   50000,
		UncorrectablePerMAccess: 5000,
		DeadBanks:               []int{3, 11},
		TSVFailFrac:             0.25,
	}
	a := runFaulty(t, fc, recs)
	b := runFaulty(t, fc, recs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed+trace diverged:\n%+v\n%+v", a, b)
	}

	// A different seed must reshuffle the fault schedule (same totals in
	// expectation, different interleaving, hence different timing).
	fc.Seed = 8
	c := runFaulty(t, fc, recs)
	if reflect.DeepEqual(a.Faults, c.Faults) && a.CPMA == c.CPMA {
		t.Fatal("seed change had no effect on the fault schedule")
	}
}

func TestCleanRunDeterministic(t *testing.T) {
	recs := l2WorkingSetTrace(40000)
	a := runFaulty(t, fault.Config{}, recs)
	b := runFaulty(t, fault.Config{}, recs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-free runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestFaultConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want error // optional sentinel to match with errors.Is
	}{
		{name: "negative correctable rate",
			mut: func(c *Config) { c.Faults.CorrectablePerMAccess = -1 }},
		{name: "uncorrectable rate above 1e6",
			mut: func(c *Config) { c.Faults.UncorrectablePerMAccess = 2e6 }},
		{name: "rates sum past certainty",
			mut: func(c *Config) {
				c.Faults.CorrectablePerMAccess = 6e5
				c.Faults.UncorrectablePerMAccess = 6e5
			}},
		{name: "dead bank out of device range",
			mut: func(c *Config) { c.Faults.DeadBanks = []int{16} }},
		{name: "duplicate dead bank",
			mut: func(c *Config) { c.Faults.DeadBanks = []int{5, 5} }},
		{name: "all banks dead",
			mut: func(c *Config) {
				c.Faults.DeadBanks = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
			},
			want: fault.ErrAllBanksDead},
		{name: "TSV fraction above 0.9",
			mut: func(c *Config) { c.Faults.TSVFailFrac = 0.95 }},
		{name: "negative sensor noise",
			mut: func(c *Config) { c.Faults.SensorNoiseC = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := StackedDRAMConfig(32)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg.Faults)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
			if _, nerr := New(cfg); nerr == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

func TestDeadBanksOnSRAML2Ignored(t *testing.T) {
	// Dead-bank config against an SRAM L2 has no stacked array to kill;
	// Validate must not consult DRAMArray geometry it does not use.
	cfg := BaselineConfig()
	cfg.Faults = fault.Config{DeadBanks: []int{0}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("SRAM L2 rejected dead-bank config: %v", err)
	}
	s := mustSim(t, cfg)
	res, err := s.Run(context.Background(), trace.NewSliceStream(l2WorkingSetTrace(5000)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMCache.Remapped != 0 {
		t.Fatalf("SRAM machine remapped DRAM banks: %+v", res.DRAMCache)
	}
}

// TestRecoveryScheduleFixed pins the costs of the fixed ECC recovery
// schedule: a correctable fix adds 16 cycles, and an uncorrectable line
// is refetched at most 3 times with backoff 32 then 64 cycles between
// attempts before it is served unrecovered.
func TestRecoveryScheduleFixed(t *testing.T) {
	recs := l2WorkingSetTrace(20000)

	storm := runFaulty(t, fault.Config{Seed: 1, UncorrectablePerMAccess: 1e6}, recs).Faults
	if storm.LinesPoisoned == 0 {
		t.Fatalf("no poisoned lines: %+v", storm)
	}
	if storm.Refetches != 3*storm.LinesPoisoned {
		t.Errorf("Refetches %d, want 3 x %d poisoned", storm.Refetches, storm.LinesPoisoned)
	}
	if storm.Unrecovered != storm.LinesPoisoned {
		t.Errorf("Unrecovered %d, want %d poisoned", storm.Unrecovered, storm.LinesPoisoned)
	}
	if storm.RetryCyclesAdded != 96*int64(storm.LinesPoisoned) {
		t.Errorf("RetryCyclesAdded %d, want 96 x %d poisoned", storm.RetryCyclesAdded, storm.LinesPoisoned)
	}

	fixed := runFaulty(t, fault.Config{Seed: 1, CorrectablePerMAccess: 1e6}, recs).Faults
	if fixed.Corrected == 0 {
		t.Fatalf("no corrections: %+v", fixed)
	}
	if fixed.RetryCyclesAdded != 16*int64(fixed.Corrected) {
		t.Errorf("RetryCyclesAdded %d, want 16 x %d corrected", fixed.RetryCyclesAdded, fixed.Corrected)
	}
}
