package memhier

import (
	"context"
	"testing"

	"diestack/internal/cache"
	"diestack/internal/trace"
)

// seqTrace builds a trace of n loads round-robining across cores with
// addresses from addrFn, no dependencies.
func seqTrace(n int, cores int, addrFn func(i int) uint64) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			ID: uint64(i), Dep: trace.NoDep, Addr: addrFn(i),
			PC: 0x400000, CPU: uint8(i % cores), Kind: trace.Load,
		}
	}
	return recs
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := BaselineConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	bad := good
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = good
	bad.L1D.Ways = 0
	if bad.Validate() == nil {
		t.Error("bad L1D accepted")
	}
	bad = good
	bad.BusBytesPerCycle = 0
	if bad.Validate() == nil {
		t.Error("zero bus accepted")
	}
	bad = good
	bad.CoreGHz = -1
	if bad.Validate() == nil {
		t.Error("negative GHz accepted")
	}
	bad = StackedDRAMConfig(32)
	bad.DRAMArray.Banks = 0
	if bad.Validate() == nil {
		t.Error("bad DRAM array accepted")
	}
}

func TestPresetConfigsValid(t *testing.T) {
	for _, mb := range []int{4, 8, 12, 16, 32, 64} {
		cfg, ok := ConfigByCapacity(mb)
		if !ok {
			t.Fatalf("ConfigByCapacity(%d) not ok", mb)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%dMB config invalid: %v", mb, err)
		}
	}
	if _, ok := ConfigByCapacity(5); ok {
		t.Error("5MB should be rejected")
	}
}

func TestStacked12MBGeometry(t *testing.T) {
	cfg := Stacked12MBConfig()
	if cfg.L2.SizeBytes != 12<<20 || cfg.L2.Latency != 24 {
		t.Fatalf("12MB config wrong: %+v", cfg.L2)
	}
	if err := cfg.L2.Validate(); err != nil {
		t.Fatalf("12MB L2 geometry invalid: %v", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	res, err := s.Run(context.Background(), trace.NewSliceStream(nil), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 0 || res.CPMA != 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

func TestBadCPURejected(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	recs := []trace.Record{{ID: 0, Dep: trace.NoDep, CPU: 7, Kind: trace.Load}}
	if _, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{}); err == nil {
		t.Fatal("record with out-of-range CPU accepted")
	}
}

func TestAllHitsCPMAAtFloor(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	// A tiny footprint hammered repeatedly: after warmup everything
	// hits L1, both cores issue one access per cycle, and CPMA sits at
	// its two-core floor of 0.5 (wall cycles / total references).
	recs := seqTrace(20000, 2, func(i int) uint64 { return uint64(i%64) * 8 })
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPMA < 0.49 || res.CPMA > 0.7 {
		t.Fatalf("all-hit CPMA = %v, want ~0.5", res.CPMA)
	}
	if hits := float64(res.L1D.Hits) / float64(res.L1D.Accesses); hits < 0.99 {
		t.Fatalf("L1D hit rate = %v", hits)
	}
	// Only the cold fills (8 lines x 64B) cross the bus.
	if res.OffDieBytes != 512 {
		t.Fatalf("off-die bytes = %d, want 512 (cold fills only)", res.OffDieBytes)
	}
}

func TestDependencySerialization(t *testing.T) {
	// A chain of dependent loads touching new L2-missing lines must be
	// far slower than the same loads made independent.
	mkTrace := func(dep bool) []trace.Record {
		recs := make([]trace.Record, 500)
		for i := range recs {
			d := trace.NoDep
			if dep && i > 0 {
				d = uint64(i - 1)
			}
			recs[i] = trace.Record{
				ID: uint64(i), Dep: d, Addr: uint64(i) * 8192,
				CPU: 0, Kind: trace.Load,
			}
		}
		return recs
	}
	sDep := mustSim(t, BaselineConfig())
	resDep, err := sDep.Run(context.Background(), trace.NewSliceStream(mkTrace(true)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sInd := mustSim(t, BaselineConfig())
	resInd, err := sInd.Run(context.Background(), trace.NewSliceStream(mkTrace(false)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resDep.Cycles < 2*resInd.Cycles {
		t.Fatalf("dependent chain (%d cyc) should be >2x slower than independent (%d cyc)",
			resDep.Cycles, resInd.Cycles)
	}
	// The dependent chain pays ~full memory latency per access.
	if resDep.AvgLatency < 150 {
		t.Fatalf("dependent chain avg latency = %v, want ~memory latency", resDep.AvgLatency)
	}
}

func TestCapacityResponse(t *testing.T) {
	// An 8 MB circular working set: misses badly in the 4 MB baseline,
	// fits in the 32 MB stacked DRAM. CPMA must drop and off-die
	// bandwidth must shrink dramatically.
	const lines = (8 << 20) / 64
	addr := func(i int) uint64 { return uint64(i%lines) * 64 }
	n := lines * 3 // three sweeps

	run := func(cfg Config) Result {
		s := mustSim(t, cfg)
		res, err := s.Run(context.Background(), trace.NewSliceStream(seqTrace(n, 2, addr)), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseRes := run(BaselineConfig())
	bigRes := run(StackedDRAMConfig(32))

	if bigRes.CPMA >= baseRes.CPMA {
		t.Fatalf("32MB CPMA %v should beat 4MB CPMA %v", bigRes.CPMA, baseRes.CPMA)
	}
	if bigRes.OffDieBytes >= baseRes.OffDieBytes/2 {
		t.Fatalf("32MB off-die bytes %d should be <half of baseline %d",
			bigRes.OffDieBytes, baseRes.OffDieBytes)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	recs := []trace.Record{
		{ID: 0, Dep: trace.NoDep, Addr: 0x1000, CPU: 0, Kind: trace.Load},
		{ID: 1, Dep: trace.NoDep, Addr: 0x1000, CPU: 1, Kind: trace.Load},
		{ID: 2, Dep: trace.NoDep, Addr: 0x1000, CPU: 0, Kind: trace.Store},
		// CPU 1 must reload the line after CPU 0's store.
		{ID: 3, Dep: trace.NoDep, Addr: 0x1000, CPU: 1, Kind: trace.Load},
	}
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", res.Invalidations)
	}
	// Record 3 misses L1 (invalidated) but hits the shared L2.
	if res.L1D.Hits != 1 {
		t.Fatalf("L1D hits = %d, want exactly 1 (record 1's reload misses)", res.L1D.Hits)
	}
}

func TestIfetchUsesL1I(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	recs := []trace.Record{
		{ID: 0, Dep: trace.NoDep, Addr: 0x8000, CPU: 0, Kind: trace.Ifetch},
		{ID: 1, Dep: trace.NoDep, Addr: 0x8000, CPU: 0, Kind: trace.Ifetch},
	}
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1I.Accesses != 2 || res.L1I.Hits != 1 {
		t.Fatalf("L1I stats = %+v", res.L1I)
	}
	if res.L1D.Accesses != 0 {
		t.Fatalf("L1D touched by ifetch: %+v", res.L1D)
	}
}

func TestDRAMCacheSectorBehaviour(t *testing.T) {
	cfg := StackedDRAMConfig(32)
	s := mustSim(t, cfg)
	// Touch two different sectors of the same 512B page, then revisit.
	recs := []trace.Record{
		{ID: 0, Dep: trace.NoDep, Addr: 0x10000, CPU: 0, Kind: trace.Load},
		{ID: 1, Dep: trace.NoDep, Addr: 0x10000, CPU: 0, Kind: trace.Load},
	}
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// First access: L1 miss, L2 line miss -> memory. Second: L1 hit.
	if res.L2.LineMiss != 1 {
		t.Fatalf("L2 stats = %+v", res.L2)
	}
	if res.Memory.Accesses != 1 {
		t.Fatalf("memory accesses = %d, want 1", res.Memory.Accesses)
	}
	// The fill granule over the bus is one 64B sector, not a 512B page.
	if res.OffDieBytes != 64 {
		t.Fatalf("OffDieBytes = %d, want 64", res.OffDieBytes)
	}
}

func TestDRAMCacheHitAvoidsBus(t *testing.T) {
	cfg := StackedDRAMConfig(32)
	s := mustSim(t, cfg)
	// Evict-free pattern: warm one sector, evict it from L1 by conflict
	// misses on other L1 sets? Simpler: two cores touch the same line;
	// the second core's L1 miss should hit the stacked DRAM without bus
	// traffic beyond the first fill.
	recs := []trace.Record{
		{ID: 0, Dep: trace.NoDep, Addr: 0x20000, CPU: 0, Kind: trace.Load},
		{ID: 1, Dep: trace.NoDep, Addr: 0x20000, CPU: 1, Kind: trace.Load},
	}
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OffDieBytes != 64 {
		t.Fatalf("OffDieBytes = %d, want one 64B fill", res.OffDieBytes)
	}
	if res.DRAMCache.Accesses == 0 {
		t.Fatal("stacked DRAM array never touched")
	}
}

func TestWritebackTraffic(t *testing.T) {
	// Dirty a large region, then sweep a second region twice as large to
	// force dirty L2 evictions. Off-die bytes must exceed pure fill
	// traffic (fills + writebacks).
	cfg := BaselineConfig()
	s := mustSim(t, cfg)
	const region = 6 << 20
	var recs []trace.Record
	id := uint64(0)
	for a := uint64(0); a < region; a += 64 {
		recs = append(recs, trace.Record{ID: id, Dep: trace.NoDep, Addr: a, CPU: uint8(id % 2), Kind: trace.Store})
		id++
	}
	for a := uint64(region); a < 3*region; a += 64 {
		recs = append(recs, trace.Record{ID: id, Dep: trace.NoDep, Addr: a, CPU: uint8(id % 2), Kind: trace.Load})
		id++
	}
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fills := (res.L2.LineMiss + res.L2.SectorMiss) * 64
	if res.OffDieBytes <= fills {
		t.Fatalf("off-die bytes %d should exceed fill-only traffic %d (writebacks missing)",
			res.OffDieBytes, fills)
	}
	if res.L2.Writebacks == 0 {
		t.Fatal("expected L2 writebacks")
	}
}

func TestBandwidthAndPowerAccounting(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	// Stream through memory: every access misses everywhere.
	recs := seqTrace(50000, 2, func(i int) uint64 { return uint64(i) * 64 })
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthGBs <= 0 {
		t.Fatal("bandwidth not computed")
	}
	// 20 pJ/bit: power W = 0.16 x GB/s.
	want := 0.16 * res.BandwidthGBs
	if diff := res.BusPowerW - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("BusPowerW = %v, want %v", res.BusPowerW, want)
	}
	// The bus is capped at 16 GB/s.
	if res.BandwidthGBs > 16.01 {
		t.Fatalf("bandwidth %v exceeds the 16 GB/s bus", res.BandwidthGBs)
	}
}

func TestL2KindString(t *testing.T) {
	if L2SRAM.String() != "sram" || L2DRAM.String() != "dram" {
		t.Error("L2Kind names wrong")
	}
}

func TestStatsLedger(t *testing.T) {
	s := mustSim(t, StackedDRAMConfig(32))
	recs := seqTrace(30000, 2, func(i int) uint64 { return uint64(i*199) % (16 << 20) })
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []cache.Stats{res.L1D, res.L2} {
		if cs.Accesses != cs.Hits+cs.SectorMiss+cs.LineMiss {
			t.Fatalf("cache ledger unbalanced: %+v", cs)
		}
	}
	if res.Refs != 30000 {
		t.Fatalf("Refs = %d", res.Refs)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	s := mustSim(t, BaselineConfig())
	// Mix of L1 hits (revisits) and memory misses (fresh lines).
	recs := seqTrace(20000, 2, func(i int) uint64 {
		if i%4 == 0 {
			return uint64(i) * 8192 // always a fresh line: memory miss
		}
		return uint64(i%8) * 64 // hot lines: L1 hits
	})
	res, err := s.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LatencyP50 <= res.LatencyP95 && res.LatencyP95 <= res.LatencyP99) {
		t.Fatalf("quantiles not ordered: %v / %v / %v",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	// The median is an L1 hit; the tail is a memory access.
	if res.LatencyP50 > 20 {
		t.Errorf("P50 = %v, want L1-hit scale", res.LatencyP50)
	}
	if res.LatencyP99 < 100 {
		t.Errorf("P99 = %v, want memory scale", res.LatencyP99)
	}
}
