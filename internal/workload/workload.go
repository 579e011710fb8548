// Package workload synthesizes the two-threaded RMS (Recognition,
// Mining, Synthesis) benchmark traces used in the Memory+Logic study
// (Table 1 of the paper).
//
// The paper traced real RMS applications on a proprietary full-system
// SMP simulator. Those traces are not available, so each benchmark is
// replaced by a generator that walks the memory access pattern of the
// underlying algorithm — same data structures, same loop structure,
// same split of work across the two threads — and emits
// dependency-annotated trace records. What matters for the study
// (working-set footprint, streaming vs reuse, irregularity of access,
// dependence chains that serialize misses) is preserved; instruction
// semantics, which the memory hierarchy simulator never sees, are not
// modeled.
//
// Footprints are sized so the benchmarks partition the same way as in
// the paper's Figure 5: conj, dSym, sSym, sAVDF, sAVIF, and svd fit in
// the 4 MB baseline cache, while gauss, pcg, sMVM, sTrans, sUS, and
// svm have multi-megabyte working sets that respond to stacked 32/64 MB
// caches.
package workload

import (
	"fmt"
	"io"
	"sort"

	"diestack/internal/trace"
)

// Benchmark is one RMS workload.
type Benchmark struct {
	// Name is the paper's benchmark name (Table 1).
	Name string
	// Description is the paper's one-line characterization.
	Description string
	// FitsIn4MB records the paper's observed behaviour: true if the
	// working set fits the baseline cache (no capacity response).
	FitsIn4MB bool
	// gen runs the benchmark's two threads into their emitters, whose
	// blocks come from free before any is allocated.
	gen func(seed uint64, scale float64, free *Blocks) [2]*emitter
}

// Stream returns the benchmark's two-threaded trace as a Stream over
// the generated threads. scale >= 0.1 grows or shrinks the problem
// (and the footprint) roughly linearly; scale=1 is the reference size.
// The trace is deterministic in seed. With a non-nil free, the threads
// are generated into blocks taken from free before any is allocated,
// and the Stream puts each block back on free once it has read it, for
// the next trace to reuse; with nil, each block is dropped once read.
// free never changes the records.
func (b Benchmark) Stream(seed uint64, scale float64, free *Blocks) *Stream {
	return newStream(b.gen(seed, scale, free))
}

// Generate returns the records of b.Stream(seed, scale, nil), collected
// into one slice of exactly their count.
func (b Benchmark) Generate(seed uint64, scale float64) []trace.Record {
	return interleave(b.gen(seed, scale, nil))
}

var registry = []Benchmark{
	{"conj", "Conjugate Gradient Solver", true, genConj},
	{"dSym", "Dense Matrix Multiplication", true, genDSym},
	{"gauss", "Linear Equation Solver using Gauss-Jordan Elimination", false, genGauss},
	{"pcg", "Preconditioned Conjugate Gradient Solver (Cholesky, Red-Black)", false, genPCG},
	{"sMVM", "Sparse Matrix Multiplication", false, genSMVM},
	{"sSym", "Symmetrical Sparse Matrix Multiplication", true, genSSym},
	{"sTrans", "Transposed Sparse Matrix Multiplication", false, genSTrans},
	{"sAVDF", "Structural Rigidity Computation, AVDF Kernel", true, genSAVDF},
	{"sAVIF", "Structural Rigidity Computation, AVIF Kernel", true, genSAVIF},
	{"sUS", "Structural Rigidity Computation, US Kernel", false, genSUS},
	{"svd", "Singular Value Decomposition, Jacobi Method", true, genSVD},
	{"svm", "Pattern Recognition for Face Recognition in Images", false, genSVM},
}

// All returns the twelve RMS benchmarks in the paper's Table 1 order.
func All() []Benchmark {
	out := make([]Benchmark, len(registry))
	copy(out, registry)
	return out
}

// Names returns the benchmark names in paper order.
func Names() []string {
	names := make([]string, len(registry))
	for i, b := range registry {
		names[i] = b.Name
	}
	return names
}

// ByName looks a benchmark up by its paper name (case-sensitive).
func ByName(name string) (Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Footprint returns the number of distinct 64-byte lines touched by a
// record slice, a direct measure of working-set size.
func Footprint(recs []trace.Record) int {
	lines := make(map[uint64]struct{})
	for _, r := range recs {
		lines[r.Addr>>6] = struct{}{}
	}
	return len(lines)
}

// FootprintBytes returns the working set in bytes (64 B per line).
func FootprintBytes(recs []trace.Record) uint64 {
	return uint64(Footprint(recs)) * 64
}

// Stream is a benchmark's trace as a trace.Stream: the records of its
// two threads, interleaved as they are read, the way the SMP trace
// generator sees both processors advance together: t0[0], t1[0],
// t0[1], t1[1], …, then the longer thread's tail. Position p is local
// id p>>1 of thread p&1 while both threads have records (p < 2m, where
// the shorter thread holds m), and local id p-m of the longer thread
// after. Ids and dependencies are renumbered by globalID, so no remap
// table is needed; the CPU field is the thread index and the PC is the
// thread's codeBase plus the record's offset. A Stream reads its
// threads once: each emitter block, a thread's partly filled last block
// included, goes as soon as its last record is read: back on the free
// list its emitter took it from, or, with none, dropped, so the blocks
// still live shrink as the stream is consumed. A dependency on a
// non-earlier local id panics, naming the thread and record.
type Stream struct {
	threads [2]*emitter
	// m is the shorter thread's length, n the total, and tail the
	// longer thread.
	m, n uint64
	tail int
	pos  uint64
}

func newStream(threads [2]*emitter) *Stream {
	s := &Stream{threads: threads, m: uint64(min(threads[0].n, threads[1].n))}
	s.n = uint64(threads[0].n + threads[1].n)
	if threads[1].n > threads[0].n {
		s.tail = 1
	}
	return s
}

// Len returns the number of records in the whole trace.
func (s *Stream) Len() int { return int(s.n) }

// Next implements trace.Stream.
func (s *Stream) Next() (trace.Record, error) {
	p := s.pos
	if p >= s.n {
		return trace.Record{}, io.EOF
	}
	s.pos++
	t, local := int(p&1), p>>1
	if p >= 2*s.m {
		t, local = s.tail, p-s.m
	}
	e := s.threads[t]
	b, off := local/blockRecs, local%blockRecs
	r := e.blocks[b][off]
	if off == blockRecs-1 || local == uint64(e.n-1) {
		e.free.put(e.blocks[b])
		e.blocks[b] = nil
	}
	dep := r.dep
	if dep != none {
		if dep >= local {
			panic(fmt.Sprintf("workload: thread %d record %d depends on non-earlier local id %d",
				t, local, dep))
		}
		dep = globalID(dep, t, s.m)
	}
	return trace.Record{
		ID:   p,
		Dep:  dep,
		Addr: r.addr,
		PC:   e.codeBase + uint64(r.pc),
		CPU:  uint8(t),
		Kind: r.kind,
		Reps: r.reps,
	}, nil
}

// interleave collects a Stream over the two threads into one
// global-order trace, allocated once at its exact size.
func interleave(threads [2]*emitter) []trace.Record {
	s := newStream(threads)
	out := make([]trace.Record, s.n)
	for i := range out {
		out[i], _ = s.Next()
	}
	return out
}

// globalID is the interleaved position of local id l of thread t when
// the shorter thread holds m records: the first m records of the two
// threads alternate, and the longer thread's tail follows in order.
func globalID(l uint64, t int, m uint64) uint64 {
	if l < m {
		return 2*l + uint64(t)
	}
	return m + l
}

// Mix summarizes the composition of a trace for reporting and tests.
type Mix struct {
	Loads, Stores, Ifetches int
	Deps                    int // records carrying a dependency
}

// Summarize computes the Mix of a record slice.
func Summarize(recs []trace.Record) Mix {
	var m Mix
	for _, r := range recs {
		switch r.Kind {
		case trace.Load:
			m.Loads++
		case trace.Store:
			m.Stores++
		case trace.Ifetch:
			m.Ifetches++
		}
		if r.HasDep() {
			m.Deps++
		}
	}
	return m
}

// Regions returns the distinct 1 GB address regions present in a
// trace, sorted. Generators place each data structure in its own
// region, so this identifies which structures a trace touches.
func Regions(recs []trace.Record) []uint64 {
	set := make(map[uint64]struct{})
	for _, r := range recs {
		set[r.Addr>>30] = struct{}{}
	}
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
