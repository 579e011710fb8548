// Package diestack reproduces "Die Stacking (3D) Microarchitecture"
// (Black et al., MICRO-39, 2006): the Memory+Logic study (large SRAM
// or DRAM caches stacked on a dual-core processor) and the Logic+Logic
// study (a deeply pipelined microprocessor folded onto two dies), each
// evaluated for performance, power, and temperature.
//
// The implementation lives under internal/: trace-driven memory
// hierarchy simulation (internal/memhier and its substrates), a
// cycle-level pipeline model (internal/uarch), a 3D finite-volume
// thermal solver (internal/thermal), block-level floorplans
// (internal/floorplan), and the study drivers (internal/core).
// Executables are under cmd/, runnable examples under examples/, and
// the benchmark harness that regenerates every table and figure of the
// paper is bench_test.go in this directory. The evaluation's text
// comes from core's renderers, which the CLIs and the benchmarks
// share, and the paper's values from core's one anchor table.
package diestack
