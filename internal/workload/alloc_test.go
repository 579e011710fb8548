package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"diestack/internal/trace"
)

// TestGenerateAllocBound bounds what generating a trace allocates in
// total, garbage included, at 1.8× the bytes of the records it
// returns: each record is stored once by its thread's emitter, in the
// 24-byte form, and once in the merged trace as a 40-byte
// trace.Record, about 1.6×, plus the unused tail of each thread's last
// block. Emitter blocks of full trace.Records cost about 2×; regrowing
// one slice per thread by append, and merging through remap tables,
// about 6×.
func TestGenerateAllocBound(t *testing.T) {
	for _, b := range All() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs := b.Generate(1, 0.25)
		runtime.ReadMemStats(&after)
		traceBytes := float64(len(recs)) * float64(unsafe.Sizeof(trace.Record{}))
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / traceBytes
		t.Logf("%s: %d records, %.2fx", b.Name, len(recs), ratio)
		if ratio > 1.8 {
			t.Errorf("%s: Generate(1, 0.25) allocated %.2fx its %d records' %.0f bytes, want <= 1.8x",
				b.Name, ratio, len(recs), traceBytes)
		}
	}
}
