// dramcache: size a stacked DRAM cache for your own workload.
//
// This example builds a custom dependency-annotated trace by hand — a
// two-threaded out-of-core stencil solver that is not part of the RMS
// suite — and sweeps the stacked-DRAM capacity to find the knee of the
// CPMA and bus-bandwidth curves. It demonstrates the trace format and
// the memory-hierarchy simulator as reusable building blocks.
//
// Run with: go run ./examples/dramcache
package main

import (
	"context"
	"fmt"
	"log"

	"diestack/internal/memhier"
	"diestack/internal/trace"
)

// stencilTrace emits a two-threaded 5-point stencil over an n x n grid
// of float64 (row-major), each thread sweeping half the rows twice.
// Every output depends on its center-point load, and rows are streamed
// line by line — the classic capacity-bound access pattern.
func stencilTrace(n, sweeps int) []trace.Record {
	const lineBytes = 64
	rowBytes := uint64(n) * 8
	gridBase := uint64(1) << 30
	outBase := uint64(2) << 30

	var recs []trace.Record
	id := uint64(0)
	emit := func(cpu uint8, kind trace.Kind, addr, dep uint64, reps uint8) uint64 {
		recs = append(recs, trace.Record{
			ID: id, Dep: dep, Addr: addr, PC: 0x400000, CPU: cpu, Kind: kind, Reps: reps,
		})
		id++
		return id - 1
	}

	for s := 0; s < sweeps; s++ {
		for i := 1; i < n-1; i++ {
			cpu := uint8(0)
			if i >= n/2 {
				cpu = 1
			}
			row := gridBase + uint64(i)*rowBytes
			up := gridBase + uint64(i-1)*rowBytes
			down := gridBase + uint64(i+1)*rowBytes
			for off := uint64(0); off+lineBytes <= rowBytes; off += lineBytes {
				center := emit(cpu, trace.Load, row+off, trace.NoDep, 7)
				emit(cpu, trace.Load, up+off, trace.NoDep, 7)
				emit(cpu, trace.Load, down+off, trace.NoDep, 7)
				// The write of the output line waits for the center load.
				emit(cpu, trace.Store, outBase+uint64(i)*rowBytes+off, center, 7)
			}
		}
	}
	return recs
}

func main() {
	// A 1280 x 1280 grid: ~12.5 MB input + ~12.5 MB output. Too big for
	// 4 MB, comfortable in 32 MB.
	ctx := context.Background()
	recs := stencilTrace(1280, 2)
	if err := trace.Validate(ctx, trace.NewSliceStream(recs)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom stencil trace: %d records\n\n", len(recs))
	fmt.Printf("%-10s %8s %10s %12s\n", "capacity", "CPMA", "BW GB/s", "traffic MB")

	capacities := []int{4, 8, 16, 32, 64}
	cfgs := make([]memhier.Config, len(capacities))
	for i, mb := range capacities {
		cfg, ok := memhier.ConfigByCapacity(mb)
		if !ok {
			log.Fatalf("no configuration for %d MB", mb)
		}
		cfgs[i] = cfg
	}
	// Every capacity shares the same L1s, so the trace runs through
	// them once and each machine replays only its L2 and memory.
	lg, err := memhier.FilterL1(ctx, cfgs[0], recs)
	if err != nil {
		log.Fatal(err)
	}
	for i, cfg := range cfgs {
		mb := capacities[i]
		sim, err := memhier.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Replay(ctx, lg, nil)
		if err != nil {
			log.Fatal(err)
		}
		kind := "DRAM"
		if cfg.L2Type == memhier.L2SRAM {
			kind = "SRAM"
		}
		fmt.Printf("%3d MB %-4s %8.3f %10.2f %12.1f\n",
			mb, kind, res.CPMA, res.BandwidthGBs, float64(res.OffDieBytes)/(1<<20))
	}
	fmt.Println("\nThe knee sits where the stacked capacity first covers the ~25 MB working set.")
}
