package fault

import (
	"errors"
	"math"
	"testing"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative correctable rate", Config{CorrectablePerMAccess: -1}},
		{"negative uncorrectable rate", Config{UncorrectablePerMAccess: -0.5}},
		{"correctable rate above 1e6", Config{CorrectablePerMAccess: 2e6}},
		{"rates sum above 1e6", Config{CorrectablePerMAccess: 6e5, UncorrectablePerMAccess: 6e5}},
		{"NaN rate", Config{CorrectablePerMAccess: math.NaN()}},
		{"negative bank index", Config{DeadBanks: []int{-1}}},
		{"bank index above 63", Config{DeadBanks: []int{64}}},
		{"duplicate dead bank", Config{DeadBanks: []int{3, 3}}},
		{"TSV fraction negative", Config{TSVFailFrac: -0.1}},
		{"TSV fraction too high", Config{TSVFailFrac: 0.95}},
		{"TSV fraction NaN", Config{TSVFailFrac: math.NaN()}},
		{"negative sensor noise", Config{SensorNoiseC: -2}},
		{"NaN sensor offset", Config{SensorOffsetC: math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

func TestValidateAcceptsZeroAndTypical(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Seed: 42, CorrectablePerMAccess: 100, UncorrectablePerMAccess: 10,
			DeadBanks: []int{0, 5}, TSVFailFrac: 0.25, SensorNoiseC: 0.5},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate rejected %+v: %v", cfg, err)
		}
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	if !(Config{TSVFailFrac: 0.1}).Enabled() {
		t.Fatal("TSV-only config reports disabled")
	}
}

func TestECCScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, CorrectablePerMAccess: 50_000, UncorrectablePerMAccess: 10_000}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg)
	const n = 20_000
	for i := 0; i < n; i++ {
		if oa, ob := a.CheckRead(), b.CheckRead(); oa != ob {
			t.Fatalf("draw %d diverged: %v vs %v", i, oa, ob)
		}
	}
	sa := a.Stats()
	if sa.ECCChecks != n {
		t.Fatalf("ECCChecks = %d, want %d", sa.ECCChecks, n)
	}
	// Rates should land near expectation: 5% corrected, 1% uncorrectable.
	if sa.Corrected < n/40 || sa.Corrected > n/10 {
		t.Fatalf("Corrected = %d, far from %d", sa.Corrected, n/20)
	}
	if sa.Uncorrectable < n/500 || sa.Uncorrectable > n/50 {
		t.Fatalf("Uncorrectable = %d, far from %d", sa.Uncorrectable, n/100)
	}

	// A different seed must produce a different schedule.
	c, _ := New(Config{Seed: 8, CorrectablePerMAccess: 50_000, UncorrectablePerMAccess: 10_000})
	same := 0
	a2, _ := New(cfg)
	for i := 0; i < n; i++ {
		if a2.CheckRead() == c.CheckRead() {
			same++
		}
	}
	if same == n {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

func TestECCZeroRatesNeverFault(t *testing.T) {
	in, _ := New(Config{Seed: 1})
	for i := 0; i < 1000; i++ {
		if out := in.CheckRead(); out != ECCClean {
			t.Fatalf("zero-rate injector produced %v", out)
		}
	}
}

func TestDRAMRemap(t *testing.T) {
	in, _ := New(Config{DeadBanks: []int{0, 1, 5}})
	m := in.DRAM()
	if m == nil {
		t.Fatal("DRAM model missing for dead-bank config")
	}
	if m.dead != 0b100011 {
		t.Fatalf("dead-bank mask = %b, want 100011", m.dead)
	}
	const banks = 8
	if got := m.RemapBank(0, banks); got != 2 {
		t.Fatalf("bank 0 remapped to %d, want 2", got)
	}
	if got := m.RemapBank(5, banks); got != 6 {
		t.Fatalf("bank 5 remapped to %d, want 6", got)
	}
	if got := m.RemapBank(3, banks); got != 3 {
		t.Fatalf("live bank 3 moved to %d", got)
	}
	// Wrap-around: bank 7 is live, stays.
	if got := m.RemapBank(7, banks); got != 7 {
		t.Fatalf("live bank 7 moved to %d", got)
	}

	// No bank/TSV faults -> no model.
	clean, _ := New(Config{SensorNoiseC: 1})
	if clean.DRAM() != nil {
		t.Fatal("sensor-only config produced a DRAM model")
	}
}

func TestNilDRAMModelPassesThrough(t *testing.T) {
	// A nil *DRAMModel can end up stored in a non-nil interface; its
	// methods must behave as the identity rather than dereference.
	var m *DRAMModel
	if got := m.RemapBank(5, 16); got != 5 {
		t.Fatalf("nil model remapped bank to %d", got)
	}
	if got := m.WidenOccupancy(42); got != 42 {
		t.Fatalf("nil model widened occupancy to %d", got)
	}
}

func TestValidateBanks(t *testing.T) {
	cfg := Config{DeadBanks: []int{0, 1, 2, 3}}
	if err := cfg.ValidateBanks(16); err != nil {
		t.Fatalf("4 of 16 dead rejected: %v", err)
	}
	err := cfg.ValidateBanks(4)
	if !errors.Is(err, ErrAllBanksDead) {
		t.Fatalf("all-dead not flagged via sentinel: %v", err)
	}
	if err := (Config{DeadBanks: []int{9}}).ValidateBanks(8); err == nil {
		t.Fatal("out-of-range dead bank accepted")
	}
}

func TestWidenOccupancy(t *testing.T) {
	in, _ := New(Config{TSVFailFrac: 0.5})
	m := in.DRAM()
	if got := m.WidenOccupancy(10); got != 20 {
		t.Fatalf("WidenOccupancy(10) at 50%% loss = %d, want 20", got)
	}
	if got := m.WidenOccupancy(0); got != 0 {
		t.Fatalf("WidenOccupancy(0) = %d", got)
	}
	none, _ := New(Config{DeadBanks: []int{1}})
	if got := none.DRAM().WidenOccupancy(10); got != 10 {
		t.Fatalf("no TSV loss widened 10 to %d", got)
	}
}

func TestSensorStuckAt(t *testing.T) {
	in, _ := New(Config{SensorStuckAt: true, SensorStuckAtC: 40, SensorNoiseC: 5, SensorOffsetC: 3})
	s := in.Sensor()
	for _, trueC := range []float64{0, 50, 120} {
		if got := s(trueC); got != 40 {
			t.Fatalf("stuck sensor read %v at true %v", got, trueC)
		}
	}
	if in.Stats().SensorReads != 3 {
		t.Fatalf("SensorReads = %d", in.Stats().SensorReads)
	}
}

func TestSensorNoiseDeterministicAndCentered(t *testing.T) {
	cfg := Config{Seed: 3, SensorNoiseC: 2, SensorOffsetC: 1}
	a, _ := New(cfg)
	b, _ := New(cfg)
	sa, sb := a.Sensor(), b.Sensor()
	const n = 10_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		va, vb := sa(80), sb(80)
		if va != vb {
			t.Fatalf("sample %d diverged: %v vs %v", i, va, vb)
		}
		d := va - 81 // true 80 + offset 1
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	sigma := math.Sqrt(sumSq / n)
	if math.Abs(mean) > 0.1 {
		t.Fatalf("noise mean %v, want ~0", mean)
	}
	if sigma < 1.8 || sigma > 2.2 {
		t.Fatalf("noise sigma %v, want ~2", sigma)
	}
}

func TestIdealSensorPassesThrough(t *testing.T) {
	in, _ := New(Config{})
	s := in.Sensor()
	if got := s(73.5); got != 73.5 {
		t.Fatalf("ideal sensor read %v", got)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{ECCChecks: 1, Corrected: 2, Uncorrectable: 3, RetryCyclesAdded: 4,
		Refetches: 5, LinesPoisoned: 6, Unrecovered: 7, SensorReads: 8}
	b := a
	b.Merge(a)
	if b.ECCChecks != 2 || b.Unrecovered != 14 || b.SensorReads != 16 {
		t.Fatalf("Merge wrong: %+v", b)
	}
}
