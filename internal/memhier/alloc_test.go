package memhier

import (
	"context"
	"io"
	"math"
	"testing"

	"diestack/internal/fault"
	"diestack/internal/obs"
	"diestack/internal/trace"
)

// mixedStream is an endless, allocation-free record source that drives
// every branch of the replay loop. Each CPU cycles load, store, ifetch,
// and every fourth record depends on its predecessor. Data records go
// three ways:
//   - half to 64 hot lines both CPUs share, so most stores find a
//     (often dirty) copy in the other L1D to invalidate;
//   - three in eight to a shared 512 KB set that overflows the L1s;
//   - one in eight to 64 lines 64 MB apart, which all map to L2 set 0,
//     so the L2 evicts dirty lines from the first thousand records on.
type mixedStream struct{ id uint64 }

func (s *mixedStream) Next() (trace.Record, error) {
	i := s.id
	s.id++
	h := i * 2654435761
	r := trace.Record{
		ID:   i,
		Dep:  trace.NoDep,
		PC:   0x400000 + i%256*4,
		CPU:  uint8(i % 2),
		Kind: trace.Kind(i / 2 % 3),
		Reps: uint8(i % 4),
	}
	switch {
	case r.Kind == trace.Ifetch:
		r.Addr = 1<<40 + i%512*64
	case i%8 == 7:
		r.Addr = i / 8 % 64 << 26
	case i%8 >= 4:
		r.Addr = h % 8192 * 64
	default:
		r.Addr = h >> 16 % 64 * 64
	}
	if i%4 == 3 {
		r.Dep = i - 1
	}
	return r, nil
}

// firstN ends a stream after its first n records, as io.EOF. It lets
// the allocation gate and the steady-state benchmark replay a set
// number of records from an endless stream; its Next allocates
// nothing.
type firstN struct {
	s trace.Stream
	n int
}

func (f *firstN) Next() (trace.Record, error) {
	if f.n == 0 {
		return trace.Record{}, io.EOF
	}
	f.n--
	return f.s.Next()
}

// TestRunAllocsFlatInRecords is the replay loop's allocation gate: a
// warm Simulator.Run may allocate its fixed run state, but nothing per
// record, so its allocation count at 100k records must equal the count
// at 1k. The same holds for Replay of a filtered log. It covers the
// planar SRAM L2, the stacked DRAM L2, and a stacked DRAM L2 whose ECC
// faults are frequent enough to reach recoverUncorrectable; an
// allocation put into either half of the replay step — the front end's
// L1s and coherence, or the back end's access, l2Access,
// recoverUncorrectable or memAccess — makes the counts differ. The
// last case binds a registry: a run publishes its statistics once, when
// it returns, so telemetry adds nothing per record either.
func TestRunAllocsFlatInRecords(t *testing.T) {
	faulty := StackedDRAMConfig(32)
	faulty.Faults = fault.Config{Seed: 1, CorrectablePerMAccess: 20000, UncorrectablePerMAccess: 20000}
	for _, tc := range []struct {
		name string
		cfg  Config
		reg  *obs.Registry
	}{
		{"baseline", BaselineConfig(), nil},
		{"dram32", StackedDRAMConfig(32), nil},
		{"dram32-faults", faulty, nil},
		{"dram32-faults-obs", faulty, obs.NewRegistry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := mustSim(t, tc.cfg)
			src := &mixedStream{}
			// The first 1k records, on a cold simulator, must already reach
			// the paths the gate guards.
			res, err := sim.Run(context.Background(), &firstN{src, 1_000}, RunOptions{Obs: tc.reg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Invalidations < 50 {
				t.Errorf("stream makes %d coherence invalidations in 1k records, want >= 50", res.Invalidations)
			}
			if res.L2.Writebacks == 0 {
				t.Error("stream makes no dirty L2 evictions in 1k records")
			}
			if tc.cfg.Faults.Enabled() && res.Faults.LinesPoisoned == 0 {
				t.Errorf("faulty config never reaches recoverUncorrectable in 1k records: %+v", res.Faults)
			}

			// The fewest of three counts: the runtime's own allocations
			// (a collection starting its workers) only ever add to a count.
			allocs := func(limit int) float64 {
				fewest := math.Inf(1)
				for range 3 {
					fewest = min(fewest, testing.AllocsPerRun(1, func() {
						if _, err := sim.Run(context.Background(), &firstN{src, limit}, RunOptions{Obs: tc.reg}); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return fewest
			}
			small, large := allocs(1_000), allocs(100_000)
			if large != small {
				t.Errorf("Run allocates %v objects at 100k records but %v at 1k: the replay loop allocates per record", large, small)
			}

			replayAllocs := func(n int) float64 {
				recs := make([]trace.Record, n)
				for i := range recs {
					recs[i], _ = src.Next()
				}
				lg, err := FilterL1(context.Background(), tc.cfg, trace.NewSliceStream(recs), nil)
				if err != nil {
					t.Fatal(err)
				}
				fewest := math.Inf(1)
				for range 3 {
					fewest = min(fewest, testing.AllocsPerRun(1, func() {
						if _, err := sim.Replay(context.Background(), lg, tc.reg); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return fewest
			}
			small, large = replayAllocs(1_000), replayAllocs(100_000)
			if large != small {
				t.Errorf("Replay allocates %v objects at 100k records but %v at 1k: the back end allocates per record", large, small)
			}
		})
	}
}
