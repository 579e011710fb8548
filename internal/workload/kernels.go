package workload

// The twelve RMS benchmark generators. Each models the line-granular
// memory behaviour of its algorithm with the work split row-wise (or
// element-wise) across two threads, the way the paper's two-threaded
// runs partition. Data structures live in disjoint 1 GB regions (see
// region) so traces are self-describing.
//
// Footprint targets at scale=1 (see package comment): the "fits in
// 4 MB" group stays under ~3.5 MB; the capacity-responsive group
// ranges from ~12 MB (sUS) to ~37 MB (svm) so that the 32 MB and
// 64 MB stacked caches capture progressively more of the working set.

// twoThreads runs kernel for thread 0 and 1, on blocks taken from free
// before any is allocated, and returns both threads' emitters, for a
// Stream to interleave.
func twoThreads(seed uint64, free *Blocks, kernel func(e *emitter, thread int)) [2]*emitter {
	var ths [2]*emitter
	for t := range ths {
		ths[t] = newEmitter(seed, t, free)
		kernel(ths[t], t)
	}
	return ths
}

// chainEvery returns a helper that threads a dependency through every
// n-th emitted load, modeling a reduction/accumulation chain with
// limited instruction-level parallelism.
func chainEvery(n int) func(e *emitter, addr uint64, count *int, last *uint64) {
	return func(e *emitter, addr uint64, count *int, last *uint64) {
		*count++
		if *count%n == 0 && *last != none {
			*last = e.loadLineDep(addr, *last)
			return
		}
		id := e.loadLine(addr)
		if *last == none || *count%n == 0 {
			*last = id
		}
	}
}

// genConj: conjugate-gradient solve on a dense system. Matrix A
// (~2.5 MB) is swept once per iteration; vectors x, r, p, q are hot.
// Dot products form dependence chains. Fits in the 4 MB baseline.
func genConj(seed uint64, scale float64, free *Blocks) [2]*emitter {
	n := dims(560, sqrtScale(scale), 64) // A is n x n doubles ~ 2.5 MB
	iters := 6
	aBase, xBase, pBase, qBase, rBase := region(0), region(1), region(2), region(3), region(4)
	rowBytes := uint64(n) * 8

	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(n, t)
		barrier := none
		for it := 0; it < iters; it++ {
			// q = A*p: stream my rows of A, gathering p densely.
			var acc uint64 = barrier
			cnt := 0
			for i := lo; i < hi; i++ {
				rowAddr := aBase + uint64(i)*rowBytes
				for off := uint64(0); off < rowBytes; off += lineBytes {
					cnt++
					if cnt%16 == 0 {
						// Dot-product accumulation dependency.
						if acc != none {
							acc = e.loadLineDep(rowAddr+off, acc)
						} else {
							acc = e.loadLine(rowAddr + off)
						}
						e.loadLine(pBase + (off % rowBytes))
					} else {
						e.loadLine(rowAddr + off)
					}
				}
				e.store(qBase + uint64(i)*8)
			}
			// alpha = r.r / p.q; x += alpha p; r -= alpha q: vector sweeps.
			vb := uint64(lo) * 8
			vlen := uint64(hi-lo) * 8
			e.sweep(rBase+vb, vlen)
			e.sweep(qBase+vb, vlen)
			e.sweepStore(xBase+vb, vlen)
			e.sweepStore(rBase+vb, vlen)
			e.sweep(pBase+vb, vlen)
			e.sweepStore(pBase+vb, vlen)
			barrier = e.last() // convergence check serializes iterations
		}
	})
}

// genDSym: blocked dense matrix multiply C = A x B with three ~0.8 MB
// matrices (total ~2.5 MB). Heavy block reuse; fits in the baseline.
func genDSym(seed uint64, scale float64, free *Blocks) [2]*emitter {
	n := dims(320, sqrtScale(scale), 64)
	const blk = 64
	nb := n / blk
	if nb < 2 {
		nb = 2 // both threads always own at least one block row
	}
	aBase, bBase, cBase := region(0), region(1), region(2)
	blockBytes := uint64(blk * blk * 8)
	blockLines := blockBytes / lineBytes

	return twoThreads(seed, free, func(e *emitter, t int) {
		loB, hiB := split(nb, t)
		// Three outer repetitions model the solver loop the kernel sits
		// in; after the first, the matrices are L2-resident.
		for rep := 0; rep < 3; rep++ {
			dsymPass(e, loB, hiB, nb, aBase, bBase, cBase, blockBytes, blockLines)
		}
	})
}

func dsymPass(e *emitter, loB, hiB, nb int, aBase, bBase, cBase, blockBytes, blockLines uint64) {
	for bi := loB; bi < hiB; bi++ {
		for bj := 0; bj < nb; bj++ {
			lastLoad := none
			for bk := 0; bk < nb; bk++ {
				aBlk := aBase + uint64(bi*nb+bk)*blockBytes
				bBlk := bBase + uint64(bk*nb+bj)*blockBytes
				for l := uint64(0); l < blockLines; l++ {
					// Within one 64x64 block multiply every element is
					// reused across the opposing block dimension; the
					// register/L1 blocking shows up as a high repeat
					// count on each line.
					e.loadN(aBlk+l*lineBytes, 63)
					lastLoad = e.loadN(bBlk+l*lineBytes, 63)
				}
			}
			// Writing the C block waits for the final accumulation.
			cBlk := cBase + uint64(bi*nb+bj)*blockBytes
			e.storeLineDep(cBlk, lastLoad)
			for off := uint64(lineBytes); off < blockBytes; off += lineBytes {
				e.storeLine(cBlk + off)
			}
		}
	}
}

// genGauss: Gauss-Jordan elimination on a ~16 MB matrix. Each pivot
// pass rewrites the whole matrix; two representative passes are
// emitted (the algorithm's n passes all look alike to the hierarchy).
// Strong capacity response: the matrix never fits 4 MB but fits 32 MB.
func genGauss(seed uint64, scale float64, free *Blocks) [2]*emitter {
	n := dims(1440, sqrtScale(scale), 128) // n x n doubles ~ 16 MB
	passes := 3
	aBase := region(0)
	rowBytes := uint64(n) * 8

	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(n, t)
		for p := 0; p < passes; p++ {
			pivotRow := aBase + uint64(p*(n-1)/maxInt(passes-1, 1))*rowBytes
			for i := lo; i < hi; i++ {
				rowAddr := aBase + uint64(i)*rowBytes
				// The elimination of row i reads the pivot row (hot) and
				// rewrites row i; the row update depends on its pivot read.
				piv := e.loadLine(pivotRow + uint64(i*lineBytes)%rowBytes)
				first := true
				for off := uint64(0); off < rowBytes; off += lineBytes {
					if first {
						e.storeLineDep(rowAddr+off, piv)
						first = false
					} else {
						e.storeLine(rowAddr + off)
					}
				}
			}
		}
	})
}

// sparseDims captures a CSR matrix's geometry for the sparse kernels.
type sparseDims struct {
	rows       int
	nnzPerRow  int
	valsBase   uint64
	colsBase   uint64
	xBase      uint64
	yBase      uint64
	rowBytes   uint64 // bytes of vals (and of cols) per row
	vecBytes   uint64
	totalBytes uint64
}

func newSparse(rows, nnzPerRow int) sparseDims {
	rb := uint64(nnzPerRow) * 8
	return sparseDims{
		rows: rows, nnzPerRow: nnzPerRow,
		valsBase: region(0), colsBase: region(1),
		xBase: region(2), yBase: region(3),
		rowBytes: rb, vecBytes: uint64(rows) * 8,
		totalBytes: 2*uint64(rows)*rb + 2*uint64(rows)*8,
	}
}

// matvecSweep emits one y = A*x CSR sweep over rows [lo,hi): per row a
// vals line, a cols line, an x gather dependent on the cols load, and
// a y store every fourth row (stores coalesce in the store buffer).
func (s sparseDims) matvecSweep(e *emitter, lo, hi int, scatter bool) {
	span := hi - lo
	for i := lo; i < hi; i++ {
		off := uint64(i) * s.rowBytes
		e.loadLine(s.valsBase + off)
		colID := e.loadLine(s.colsBase + off)
		// Irregular gather: the column index is only known after the
		// cols load completes — the classic serializing dependence.
		gather := s.xBase + uint64(lo+e.rng.Intn(span))*8
		gid := e.loadDep(gather, colID)
		if scatter {
			// sTrans: scattered store into this thread's partition of y
			// (parallel transposed multiply privatizes the output).
			e.storeDep(s.yBase+uint64(lo+e.rng.Intn(span))*8, gid)
		} else if i%4 == 0 {
			e.store(s.yBase + uint64(i)*8)
		}
	}
}

// genPCG: preconditioned CG with an incomplete-Cholesky factor and
// red-black ordering. Matrix ~19 MB plus factor ~10 MB: responds to
// capacity through 64 MB.
func genPCG(seed uint64, scale float64, free *Blocks) [2]*emitter {
	s := newSparse(dims(100_000, scale, 4096), 12)
	lBase, lColsBase := region(4), region(5)
	lRowBytes := uint64(6) * 8
	iters := 2

	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(s.rows, t)
		barrier := none
		for it := 0; it < iters; it++ {
			if barrier != none {
				e.loadDep(s.xBase+uint64(lo)*8, barrier)
			}
			// q = A p
			s.matvecSweep(e, lo, hi, false)
			// z = M^-1 r: red-black two half-sweeps over the factor; rows
			// within a color are independent, colors are serialized.
			for color := 0; color < 2; color++ {
				colorDep := e.last()
				for i := lo + color; i < hi; i += 2 {
					off := uint64(i) * lRowBytes
					if i == lo+color {
						e.loadLineDep(lBase+off, colorDep)
					} else {
						e.loadLine(lBase + off)
					}
					e.loadLine(lColsBase + off)
					if i%4 == 0 {
						e.store(s.yBase + uint64(i)*8)
					}
				}
			}
			// Vector updates.
			vb := uint64(lo) * 8
			vlen := uint64(hi-lo) * 8
			e.sweep(s.xBase+vb, vlen)
			e.sweepStore(s.xBase+vb, vlen)
			barrier = e.last()
		}
	})
}

// genSMVM: plain CSR sparse matrix-vector multiply, ~15 MB footprint,
// swept three times (three solver iterations).
func genSMVM(seed uint64, scale float64, free *Blocks) [2]*emitter {
	s := newSparse(dims(130_000, scale, 4096), 12)
	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(s.rows, t)
		for it := 0; it < 3; it++ {
			s.matvecSweep(e, lo, hi, false)
		}
	})
}

// genSSym: symmetric sparse multiply storing only the upper triangle,
// ~2.5 MB. Extra scattered accumulations into y[col] but the whole
// problem fits the baseline cache.
func genSSym(seed uint64, scale float64, free *Blocks) [2]*emitter {
	s := newSparse(dims(1_200, scale, 256), 8)
	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(s.rows, t)
		for it := 0; it < 34; it++ {
			span := hi - lo
			for i := lo; i < hi; i++ {
				off := uint64(i) * s.rowBytes
				e.loadLine(s.valsBase + off)
				colID := e.loadLine(s.colsBase + off)
				g := e.loadDep(s.xBase+uint64(lo+e.rng.Intn(span))*8, colID)
				// Symmetric update touches both y[i] and y[col]; the
				// parallel version privatizes y per thread.
				e.store(s.yBase + uint64(i)*8)
				e.storeDep(s.yBase+uint64(lo+e.rng.Intn(span))*8, g)
			}
		}
	})
}

// genSTrans: transposed sparse multiply — the scatter version of
// sMVM. Scattered stores generate dirty-eviction writeback traffic on
// top of the ~15 MB streaming footprint.
func genSTrans(seed uint64, scale float64, free *Blocks) [2]*emitter {
	s := newSparse(dims(130_000, scale, 4096), 12)
	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(s.rows, t)
		for it := 0; it < 3; it++ {
			s.matvecSweep(e, lo, hi, true)
		}
	})
}

// femDims captures a finite-element mesh for the structural-rigidity
// kernels (sAVDF, sAVIF, sUS differ in mesh size and gather pattern).
type femDims struct {
	elems, nodes       int
	connBase, nodeBase uint64
	forceBase          uint64
	nodeBytes          uint64
}

func newFEM(elems, nodes int) femDims {
	return femDims{
		elems: elems, nodes: nodes,
		connBase: region(0), nodeBase: region(1), forceBase: region(2),
		nodeBytes: uint64(nodes) * 48, // coords + displacement per node
	}
}

// assemble emits sweeps of element assembly: connectivity read, node
// gathers (local when spread==0, random within +/-spread otherwise),
// and a force store.
func (f femDims) assemble(e *emitter, lo, hi, sweeps, spread int) {
	for s := 0; s < sweeps; s++ {
		for el := lo; el < hi; el++ {
			conn := e.loadN(f.connBase+uint64(el)*32, 3)
			base := uint64(el) * 48 % f.nodeBytes
			for g := 0; g < 3; g++ {
				addr := base + uint64(g)*48
				if spread > 0 {
					addr = (base + uint64(e.rng.Intn(spread))*48) % f.nodeBytes
				}
				if g == 0 {
					e.loadDepN(f.nodeBase+addr, conn, 5)
				} else {
					e.loadN(f.nodeBase+addr, 5)
				}
			}
			if el%2 == 0 {
				e.storeN(f.forceBase+uint64(el)*24, 2)
			}
		}
	}
}

// genSAVDF: structural rigidity, AVDF kernel — compact ~3 MB mesh with
// mostly local gathers. Fits the baseline.
func genSAVDF(seed uint64, scale float64, free *Blocks) [2]*emitter {
	f := newFEM(dims(25_000, scale, 2048), dims(30_000, scale, 2048))
	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(f.elems, t)
		f.assemble(e, lo, hi, 3, 0)
	})
}

// genSAVIF: structural rigidity, AVIF kernel — same compact mesh with
// irregular (indexed) gathers. Fits the baseline.
func genSAVIF(seed uint64, scale float64, free *Blocks) [2]*emitter {
	f := newFEM(dims(25_000, scale, 2048), dims(30_000, scale, 2048))
	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(f.elems, t)
		f.assemble(e, lo, hi, 3, 128)
	})
}

// genSUS: structural rigidity, US kernel — a ~12 MB mesh with wide
// irregular gathers. Misses the baseline, fits the stacked caches.
func genSUS(seed uint64, scale float64, free *Blocks) [2]*emitter {
	f := newFEM(dims(120_000, scale, 8192), dims(260_000, scale, 8192))
	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(f.elems, t)
		f.assemble(e, lo, hi, 2, 4096)
	})
}

// genSVD: one-sided Jacobi SVD on a small dense matrix (~0.6 MB).
// Column-pair rotations revisit the same columns constantly; fits the
// baseline with room to spare.
func genSVD(seed uint64, scale float64, free *Blocks) [2]*emitter {
	n := dims(272, sqrtScale(scale), 64)
	aBase := region(0)
	colBytes := uint64(n) * 8

	return twoThreads(seed, free, func(e *emitter, t int) {
		lo, hi := split(n, t)
		for i := lo; i < hi; i++ {
			for j := i + 1; j < minInt(i+5, n); j++ {
				ci := aBase + uint64(i)*colBytes
				cj := aBase + uint64(j)*colBytes
				// Dot products of the two columns, then the rotation
				// rewrites both. The rotation depends on the dots.
				var dot uint64 = none
				cnt := 0
				chain := chainEvery(8)
				for off := uint64(0); off < colBytes; off += lineBytes {
					chain(e, ci+off, &cnt, &dot)
					chain(e, cj+off, &cnt, &dot)
				}
				e.storeLineDep(ci, dot)
				for off := uint64(lineBytes); off < colBytes; off += lineBytes {
					e.storeLine(ci + off)
				}
				e.sweepStore(cj, colBytes)
			}
		}
	})
}

// genSVM: SVM-based face recognition. Each query streams a sampled
// subset of a ~37 MB support-vector matrix computing kernel dot
// products; across queries the whole matrix is revisited. The largest
// footprint in the suite — keeps improving through 64 MB.
func genSVM(seed uint64, scale float64, free *Blocks) [2]*emitter {
	svs := dims(9000, scale, 512)
	const dim = 512 // doubles per support vector: 4 KB, 64 lines
	svBase, qBase := region(0), region(1)
	svBytes := uint64(dim) * 8
	queries := 12
	perQuery := svs / queries * 2 // 2x oversample: matrix covered twice

	return twoThreads(seed, free, func(e *emitter, t int) {
		loQ, hiQ := split(queries, t)
		for q := loQ; q < hiQ; q++ {
			qAddr := qBase + uint64(q)*svBytes
			e.sweep(qAddr, svBytes) // the query vector itself
			var acc uint64 = none
			cnt := 0
			chain := chainEvery(16)
			for k := 0; k < perQuery; k++ {
				sv := uint64(e.rng.Intn(svs))
				base := svBase + sv*svBytes
				for off := uint64(0); off < svBytes; off += lineBytes {
					chain(e, base+off, &cnt, &acc)
				}
			}
		}
	})
}

// split divides [0,n) between two threads.
func split(n, t int) (lo, hi int) {
	mid := n / 2
	if t == 0 {
		return 0, mid
	}
	return mid, n
}

// sqrtScale converts a linear footprint scale into a per-dimension
// scale for 2-D structures (footprint ~ n^2).
func sqrtScale(scale float64) float64 {
	if scale <= 0 {
		return 1
	}
	// Newton's iteration for sqrt, avoiding a math import here.
	x := scale
	for i := 0; i < 20; i++ {
		x = 0.5 * (x + scale/x)
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
