package workload

import "testing"

func BenchmarkGenerateGauss(b *testing.B) {
	bench, _ := ByName("gauss")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recs := bench.Generate(1, 1.0)
		b.ReportMetric(float64(len(recs)), "records/op")
	}
}

func BenchmarkGenerateSVM(b *testing.B) {
	bench, _ := ByName("svm")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recs := bench.Generate(1, 1.0)
		b.ReportMetric(float64(len(recs)), "records/op")
	}
}

func BenchmarkInterleave(b *testing.B) {
	// Two threads of dense local ids, every fourth record dependent.
	mk := func(n int) *emitter {
		e := &emitter{}
		for i := 0; i < n; i++ {
			dep := none
			if i > 0 && i%4 == 0 {
				dep = uint64(i - 1)
			}
			e.push(rec{addr: uint64(i) * 64, dep: dep})
		}
		return e
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A Stream drops each block it has read, so every pass
		// interleaves fresh threads.
		b.StopTimer()
		ths := [2]*emitter{mk(100_000), mk(100_000)}
		b.StartTimer()
		out := interleave(ths)
		if len(out) != 200_000 {
			b.Fatal("bad interleave")
		}
	}
}
