package workload

import (
	"runtime"
	"testing"
	"unsafe"

	"diestack/internal/trace"
)

// TestGenerateAllocBound bounds what generating a trace allocates in
// total, garbage included, at 2.5× the bytes of the records it
// returns: each record is stored once by its thread's emitter and once
// in the merged trace, plus the unused tail of each thread's last
// block. Regrowing one slice per thread by append, and merging through
// remap tables, costs about 6×.
func TestGenerateAllocBound(t *testing.T) {
	for _, b := range All() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs := b.Generate(1, 0.25)
		runtime.ReadMemStats(&after)
		traceBytes := float64(len(recs)) * float64(unsafe.Sizeof(trace.Record{}))
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / traceBytes
		t.Logf("%s: %d records, %.2fx", b.Name, len(recs), ratio)
		if ratio > 2.5 {
			t.Errorf("%s: Generate(1, 0.25) allocated %.2fx its %d records' %.0f bytes, want <= 2.5x",
				b.Name, ratio, len(recs), traceBytes)
		}
	}
}
