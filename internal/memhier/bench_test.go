package memhier

import (
	"context"
	"testing"

	"diestack/internal/trace"
)

func replayBench(b *testing.B, cfg Config) {
	b.Helper()
	recs := make([]trace.Record, 200_000)
	for i := range recs {
		recs[i] = trace.Record{
			ID: uint64(i), Dep: trace.NoDep, Addr: uint64(i*67) % (24 << 20),
			CPU: uint8(i % 2), Kind: trace.Load, Reps: 7,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(context.Background(), trace.NewSliceStream(recs), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

func BenchmarkReplaySRAM(b *testing.B) { replayBench(b, BaselineConfig()) }
func BenchmarkReplayDRAM(b *testing.B) { replayBench(b, StackedDRAMConfig(32)) }

// benchStream is an endless synthetic record source: strictly
// increasing ids, no dependencies, a strided address pattern that
// misses through the hierarchy. Next never allocates.
type benchStream struct{ id uint64 }

func (s *benchStream) Next() (trace.Record, error) {
	r := trace.Record{
		ID:   s.id,
		Dep:  trace.NoDep,
		Addr: (s.id * 67 * 64) % (24 << 20),
		CPU:  uint8(s.id % 2),
		Kind: trace.Load,
		Reps: 7,
	}
	s.id++
	return r, nil
}

// BenchmarkReplaySteadyState measures the per-record cost of a warm
// replay loop with the simulator built once — the regime a
// billion-record campaign run spends essentially all its time in. One
// op is one record; allocs/op reports 0 (the fixed run-state setup
// amortizes to nothing over b.N records). TestRunAllocsFlatInRecords is
// the gate that fails if a per-record allocation appears.
func BenchmarkReplaySteadyState(b *testing.B) {
	sim, err := New(StackedDRAMConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	src := &benchStream{}
	if _, err := sim.Run(context.Background(), &firstN{src, 10_000}, RunOptions{}); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sim.Run(context.Background(), &firstN{src, b.N}, RunOptions{}); err != nil {
		b.Fatal(err)
	}
}
