package memhier

import (
	"context"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
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
		fromStream, err := FilterL1(ctx, cfgs[0], b.Stream(1, 0.1, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		fromSlice, err := FilterL1(ctx, cfgs[0], trace.NewSliceStream(b.Generate(1, 0.1)), nil)
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
// allocation count may grow only by one per address chunk and per
// event chunk the log adds, plus the doublings of the log's two chunk
// lists. Each count is the fewest of three filters of a fresh stream:
// the runtime's own allocations only ever add to a count.
func TestFilterStreamAllocs(t *testing.T) {
	cfg := figure5Configs(t, 2, fault.Config{})[0]
	for _, name := range []string{"gauss", "sTrans", "svd"} {
		b, _ := workload.ByName(name)
		measure := func(scale float64) (fewest uint64, chunks, evChunks int) {
			fewest = math.MaxUint64
			for range 3 {
				src := b.Stream(1, scale, nil)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				lg, err := FilterL1(context.Background(), cfg, src, nil)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				fewest, chunks, evChunks = min(fewest, after.Mallocs-before.Mallocs), len(lg.addrs), len(lg.events)
			}
			return fewest, chunks, evChunks
		}
		small, smallChunks, smallEv := measure(0.1)
		large, largeChunks, largeEv := measure(0.25)
		allowed := uint64(largeChunks-smallChunks) + uint64(bits.Len(uint(largeChunks))) +
			uint64(largeEv-smallEv) + uint64(bits.Len(uint(largeEv)))
		if large > small+allowed {
			t.Errorf("%s: FilterL1 makes %d allocations at scale 0.25 (%d address, %d event chunks) but %d at 0.1 (%d, %d chunks); want at most %d more",
				name, large, largeChunks, largeEv, small, smallChunks, smallEv, allowed)
		}
	}
}

// TestFilterStreamReuse checks that a log filtered into the chunks of
// another trace's log is the log a fresh FilterL1 of the same records
// builds: sTrans into svd's log (a shorter trace's), then gauss into
// that one (a longer trace's), at scale 0.1. The events, addresses,
// ring, L1 statistics and invalidations must match, the spare chunks
// the new log does not need must be dropped, and the log must replay
// to the fresh log's Result on every Figure 5 machine.
func TestFilterStreamReuse(t *testing.T) {
	ctx := context.Background()
	cfgs := figure5Configs(t, 2, fault.Config{})
	stream := func(name string) SizedStream {
		b, _ := workload.ByName(name)
		return b.Stream(1, 0.1, nil)
	}
	lg, err := FilterL1(ctx, cfgs[0], stream("svd"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sTrans", "gauss"} {
		got, err := FilterL1(ctx, cfgs[0], stream(name), lg)
		if err != nil {
			t.Fatal(err)
		}
		if got != lg {
			t.Fatalf("%s: FilterL1 returned a new log, not the one it was given to reuse", name)
		}
		want, err := FilterL1(ctx, cfgs[0], stream(name), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatLog(got), flatLog(want)) {
			t.Errorf("%s: L1 log filtered into a reused log differs from a fresh one", name)
		}
		if spare := got.events[len(got.events):cap(got.events)]; slices.ContainsFunc(spare, func(c []event) bool { return c != nil }) {
			t.Errorf("%s: reused log keeps a spare event chunk past its %d", name, len(got.events))
		}
		if spare := got.addrs[len(got.addrs):cap(got.addrs)]; slices.ContainsFunc(spare, func(c []uint64) bool { return c != nil }) {
			t.Errorf("%s: reused log keeps a spare address chunk past its %d", name, len(got.addrs))
		}
		for _, cfg := range cfgs {
			var res [2]Result
			for k, l := range []*L1Log{got, want} {
				if res[k], err = mustSim(t, cfg).Replay(ctx, l, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Errorf("%s, %d MB: reused log replays to %+v, fresh log to %+v", name, cfg.L2.SizeBytes>>20, res[0], res[1])
			}
		}
	}
}

// flatLog returns a copy of lg with its events and its addresses each
// in one chunk, so that logs chunked differently compare equal.
func flatLog(lg *L1Log) L1Log {
	c := *lg
	c.events = [][]event{slices.Concat(lg.events...)}
	c.addrs = [][]uint64{slices.Concat(lg.addrs...)}
	return c
}
