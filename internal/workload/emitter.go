package workload

import (
	"diestack/internal/stats"
	"diestack/internal/trace"
)

// lineBytes is the coherence/fill granule all generators emit at.
// Touching every byte of a structure would only replicate L1 hits; the
// hierarchy study cares about line-granular behaviour.
const lineBytes = 64

// region computes a disjoint 1 GB address region base for a data
// structure. Generators give each structure its own region so traces
// are self-describing and structures never alias.
func region(i int) uint64 { return uint64(i+1) << 30 }

// blockRecs is the number of records in one emitter block. Storing a
// thread's records in fixed blocks, instead of one slice grown by
// append, allocates each record once; the unused tail of the last block
// is the only slack, and 4096 records (96 KB) keeps that small beside
// even the shortest scaled-down trace.
const blockRecs = 1 << 12

// rec is one record as an emitter block holds it: 24 bytes, where a
// trace.Record takes 40. Its id is its position in the thread, its CPU
// is the thread, and its PC is kept as an offset from the thread's
// codeBase; a Stream expands it into the full form.
type rec struct {
	addr uint64
	dep  uint64 // local id, or none
	pc   uint32 // PC - codeBase
	kind trace.Kind
	reps uint8
}

// Blocks is a free list of emitter blocks, which lets one trace be
// generated into the blocks of the trace read before it: a Stream
// given a list puts each block on it once the block's last record is
// read, and a generator given one takes its blocks from it before it
// allocates. The zero value is an empty list. A Blocks is not safe for
// concurrent use.
type Blocks struct {
	free [][]rec
}

// get returns an empty block, taken from the list when it holds one.
func (f *Blocks) get() []rec {
	if f == nil || len(f.free) == 0 {
		return make([]rec, 0, blockRecs)
	}
	last := len(f.free) - 1
	b := f.free[last]
	f.free[last] = nil
	f.free = f.free[:last]
	return b[:0]
}

// put adds a block whose records have all been read. A nil list drops
// it.
func (f *Blocks) put(b []rec) {
	if f != nil {
		f.free = append(f.free, b)
	}
}

// Drop empties the list, so the blocks it held can be collected.
func (f *Blocks) Drop() {
	clear(f.free)
	f.free = f.free[:0]
}

// emitter builds one thread's record list with thread-local ids 0..n-1.
// A Stream interleaves two threads into a global trace.
type emitter struct {
	// blocks hold the records in id order, blockRecs to a block; only
	// the last block may be partly filled.
	blocks [][]rec
	// free supplies new blocks before any is allocated, and a Stream
	// returns each block to it once read (nil: none).
	free *Blocks
	n    int
	rng  *stats.RNG
	// codeBase/codeLines model the thread's hot loop body for the
	// occasional instruction fetch record.
	codeBase  uint64
	codeLines int
	codePos   int
	dataCount int
	// ifetchEvery inserts one ifetch per that many data references
	// (0 disables).
	ifetchEvery int
}

// newEmitter creates an emitter for one thread that takes its blocks
// from free before it allocates. Threads of the same benchmark share the
// seed but diverge by thread index.
func newEmitter(seed uint64, threadIdx int, free *Blocks) *emitter {
	return &emitter{
		free:        free,
		rng:         stats.NewRNG(seed*0x9e3779b9 + uint64(threadIdx)*0x85ebca6b + 1),
		codeBase:    region(30) + uint64(threadIdx)<<20,
		codeLines:   64, // a 4 KB hot loop: always L1I-resident
		ifetchEvery: 16,
	}
}

// none is the local "no dependency" marker, mirroring trace.NoDep.
const none = trace.NoDep

// push appends r under the next local id and returns that id.
func (e *emitter) push(r rec) uint64 {
	if e.n%blockRecs == 0 {
		e.blocks = append(e.blocks, e.free.get())
	}
	last := len(e.blocks) - 1
	e.blocks[last] = append(e.blocks[last], r)
	e.n++
	return uint64(e.n - 1)
}

func (e *emitter) emit(kind trace.Kind, addr, dep uint64, reps uint8) uint64 {
	id := e.push(rec{addr: addr, dep: dep, pc: uint32(e.codePos) * 4, kind: kind, reps: reps})
	if kind != trace.Ifetch {
		e.dataCount++
		if e.ifetchEvery > 0 && e.dataCount%e.ifetchEvery == 0 {
			e.codePos = (e.codePos + 1) % (e.codeLines * (lineBytes / 4))
			e.emitIfetch()
		}
	}
	return id
}

func (e *emitter) emitIfetch() {
	off := uint32(e.codePos/(lineBytes/4)) * lineBytes
	e.push(rec{addr: e.codeBase + uint64(off), dep: none, pc: off, kind: trace.Ifetch, reps: 3})
}

// denseReps is the repeat count for dense sequential access: eight
// doubles per 64-byte line means one record plus seven repeats.
const denseReps = 7

// load emits an independent single load and returns its local id.
func (e *emitter) load(addr uint64) uint64 { return e.emit(trace.Load, addr, none, 0) }

// loadLine emits a dense read of a full line (8 sequential doubles).
func (e *emitter) loadLine(addr uint64) uint64 { return e.emit(trace.Load, addr, none, denseReps) }

// loadDep emits a single load that must wait for record dep.
func (e *emitter) loadDep(addr, dep uint64) uint64 { return e.emit(trace.Load, addr, dep, 0) }

// loadLineDep emits a dense line read dependent on record dep.
func (e *emitter) loadLineDep(addr, dep uint64) uint64 {
	return e.emit(trace.Load, addr, dep, denseReps)
}

// store emits an independent single store.
func (e *emitter) store(addr uint64) uint64 { return e.emit(trace.Store, addr, none, 0) }

// storeLine emits a dense write of a full line.
func (e *emitter) storeLine(addr uint64) uint64 { return e.emit(trace.Store, addr, none, denseReps) }

// storeDep emits a single store that must wait for record dep.
func (e *emitter) storeDep(addr, dep uint64) uint64 { return e.emit(trace.Store, addr, dep, 0) }

// storeLineDep emits a dense line write dependent on record dep.
func (e *emitter) storeLineDep(addr, dep uint64) uint64 {
	return e.emit(trace.Store, addr, dep, denseReps)
}

// loadN emits a load followed by reps same-line repeats.
func (e *emitter) loadN(addr uint64, reps uint8) uint64 { return e.emit(trace.Load, addr, none, reps) }

// loadDepN is loadN with a dependency on record dep.
func (e *emitter) loadDepN(addr, dep uint64, reps uint8) uint64 {
	return e.emit(trace.Load, addr, dep, reps)
}

// storeN emits a store followed by reps same-line repeats.
func (e *emitter) storeN(addr uint64, reps uint8) uint64 {
	return e.emit(trace.Store, addr, none, reps)
}

// sweep emits dense line reads over [base, base+bytes), returning the
// id of the last record. Models a streaming read of a structure.
func (e *emitter) sweep(base, bytes uint64) uint64 {
	last := none
	for off := uint64(0); off < bytes; off += lineBytes {
		last = e.loadLine(base + off)
	}
	return last
}

// sweepStore is sweep for writes.
func (e *emitter) sweepStore(base, bytes uint64) uint64 {
	last := none
	for off := uint64(0); off < bytes; off += lineBytes {
		last = e.storeLine(base + off)
	}
	return last
}

// last returns the id of the most recent record, or none when empty.
func (e *emitter) last() uint64 {
	if e.n == 0 {
		return none
	}
	return uint64(e.n - 1)
}

// dims derives an integer dimension from a base size and the scale
// factor, with a floor to keep degenerate problems meaningful.
func dims(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		return min
	}
	return v
}
