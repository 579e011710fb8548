package memhier

import (
	"context"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"diestack/internal/fault"
	"diestack/internal/trace"
	"diestack/internal/workload"
)

// TestFilterStreamMatchesSlice checks that filtering a benchmark's
// stream, which never collects its records, leaves the same L1Log as
// filtering the slice Generate collects from the same threads, and
// that the two logs replay to the same Result on every Figure 5
// machine, for all twelve benchmarks at scale 0.1.
func TestFilterStreamMatchesSlice(t *testing.T) {
	ctx := context.Background()
	cfgs := figure5Configs(t, 2, fault.Config{})
	for _, b := range workload.All() {
		fromStream, err := FilterL1(ctx, cfgs[0], b.Stream(1, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		fromSlice, err := FilterL1(ctx, cfgs[0], trace.NewSliceStream(b.Generate(1, 0.1)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromStream, fromSlice) {
			t.Errorf("%s: L1 log filtered from the stream differs from the slice's", b.Name)
		}
		for _, cfg := range cfgs {
			var res [2]Result
			for k, lg := range []*L1Log{fromStream, fromSlice} {
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res[k], err = sim.Replay(ctx, lg, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Errorf("%s, %d MB: stream replay %+v, slice replay %+v", b.Name, cfg.L2.SizeBytes>>20, res[0], res[1])
			}
		}
	}
}

// TestFilterStreamAllocs checks that FilterL1 over a benchmark's
// stream allocates nothing per record: from scale 0.1 to 0.25 its
// allocation count may grow only by one per address chunk the log
// adds, plus the doublings of the log's chunk list. Each count is the
// fewest of three filters of a fresh stream: the runtime's own
// allocations only ever add to a count.
func TestFilterStreamAllocs(t *testing.T) {
	cfg := figure5Configs(t, 2, fault.Config{})[0]
	for _, name := range []string{"gauss", "sTrans", "svd"} {
		b, _ := workload.ByName(name)
		measure := func(scale float64) (fewest uint64, chunks int) {
			fewest = math.MaxUint64
			for range 3 {
				src := b.Stream(1, scale)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				lg, err := FilterL1(context.Background(), cfg, src)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				fewest, chunks = min(fewest, after.Mallocs-before.Mallocs), len(lg.addrs)
			}
			return fewest, chunks
		}
		small, smallChunks := measure(0.1)
		large, largeChunks := measure(0.25)
		allowed := uint64(largeChunks-smallChunks) + uint64(bits.Len(uint(largeChunks)))
		if large > small+allowed {
			t.Errorf("%s: FilterL1 makes %d allocations at scale 0.25 (%d address chunks) but %d at 0.1 (%d chunks); want at most %d more",
				name, large, largeChunks, small, smallChunks, allowed)
		}
	}
}
