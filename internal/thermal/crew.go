// The crew: one solve attempt's helper goroutines, which split the
// per-level kernels of every large multigrid level into contiguous
// row bands. Every band runs exactly the floating-point operations the
// serial kernel runs on its rows, in the same order, so a result does
// not depend on the schedule:
//
//   - smoothing: same-color z-columns share no lateral face, so each
//     band relaxes its rows of one color with its own line scratch;
//     the per-band largest deltas combine by the serial d > max rule.
//   - restriction: split by coarse row, so each coarse cell still
//     receives its four fine contributions in fine-y-then-x order.
//   - prolongation: split by fine row; each fine cell adds its own
//     interpolated correction.
//
// Order-dependent sums (heat outflow, total power, stored energy), the
// convergence delta, and the coarsest and small levels stay on the
// calling goroutine. A crew
// lives for one attempt: it starts before the first cycle and stops on
// every return path, so a Workspace between solves holds no goroutines.
//
// Bands are claimed, not assigned: each worker runs its own share
// first and then steals what is left of the others', so a helper that
// is parked or descheduled when a kernel starts delays nobody — the
// caller runs its share — and the caller waits only for bands already
// running.
package thermal

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// crewMinRows is the rows per band: a level splits into
	// ny/crewMinRows bands, and one with fewer than two stays serial.
	crewMinRows = 8
	// crewSpins is how many times a waiting side yields before it
	// parks. Longer spins bridge more hand-offs without a wake-up, but
	// a spinning helper burns a core through every serial stretch
	// (coarse levels, convergence tests, time-step bookkeeping). On the
	// 2-vCPU benchmark host the closed-loop DTM run took the same wall
	// time at 0, 10, 50 and 200 spins, and CPU rose with the budget;
	// work stealing covers a late wake-up.
	crewSpins = 10
)

// bandOp is the kernel a band runs on its rows.
type bandOp uint8

const (
	opSmooth bandOp = iota
	opRestrict
	opProlong
)

// band is one contiguous row range of a level, with the line scratch
// its smoothing uses. The caller sets op (and color and omega for
// smoothing) before each dispatch; a smoothing band leaves its largest
// delta in delta.
type band struct {
	lv, next *mgLevel // the level and the coarser one below it
	y0, y1   int      // rows [y0, y1) of lv: smoothing, prolongation
	c0, c1   int      // rows [c0, c1) of next: restriction
	sc       *lineScratch

	op    bandOp
	color int
	omega float64
	delta float64
}

func (b *band) run() {
	switch b.op {
	case opSmooth:
		b.delta = b.lv.smoothRows(b.sc, b.color, b.omega, b.y0, b.y1)
	case opRestrict:
		restrictRows(b.lv, b.next, b.sc.rhs, b.c0, b.c1)
	case opProlong:
		prolongRows(b.next, b.lv, b.y0, b.y1)
	}
}

// gate parks one waiter until a condition holds. The waiter yields
// crewSpins times first, then sets parked and blocks on wake; whoever
// makes the condition true calls open, which sends only if it is the
// one to clear parked, so no wake-up is lost or left over.
type gate struct {
	parked atomic.Bool
	wake   chan struct{}
}

func (g *gate) wait(ready func() bool) {
	for i := 0; !ready(); i++ {
		if i < crewSpins {
			runtime.Gosched()
			continue
		}
		g.parked.Store(true)
		if ready() {
			if !g.parked.CompareAndSwap(true, false) {
				<-g.wake // open cleared the flag first and is sending
			}
			return
		}
		<-g.wake
	}
}

func (g *gate) open() {
	if g.parked.Load() && g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// worker is one member of a crew: the caller (worker 0) or a helper.
// Of each dispatch's bands it owns a contiguous range, aligned across
// levels and kernels so the rows a worker smooths are the rows it then
// restricts and prolongs, and stay warm in its core's cache. state
// packs generation<<32 | back<<16 | front, the owned bands [front,
// back) no one has claimed yet. A worker claims from the front of its
// own range, then steals from the back of the others'.
type worker struct {
	state atomic.Uint64
	gate
}

// take claims a band of generation gen from w's range, at the back
// when stealing; ok is false once the range is empty or a later
// generation has begun.
func (w *worker) take(gen uint32, back bool) (i int, ok bool) {
	for {
		s := w.state.Load()
		f, b := int(s&0xffff), int(s>>16&0xffff)
		if uint32(s>>32) != gen || f >= b {
			return 0, false
		}
		if back {
			if w.state.CompareAndSwap(s, s-1<<16) {
				return b - 1, true
			}
		} else if w.state.CompareAndSwap(s, s+1) {
			return f, true
		}
	}
}

// crew is the caller and len(workers)-1 helper goroutines. A dispatch
// puts its bands in cur and hands every worker its range under a new
// generation; done counts the dispatch's finished bands.
type crew struct {
	workers []worker
	gen     uint32 // the caller's count of generations (it wraps)
	done    atomic.Uint32
	cur     []band
	quit    atomic.Bool
	wg      sync.WaitGroup
}

// attachCrew starts a crew for one solve attempt, with
// min(GOMAXPROCS, bands of the fine level) − 1 helpers, and splits
// every level but the coarsest that has at least two bands' rows into
// ny/crewMinRows bands. With GOMAXPROCS 1, or a grid too small to
// split, it starts nothing and every kernel runs serial.
func (h *mgHier) attachCrew() {
	last := len(h.levels) - 1
	n := min(runtime.GOMAXPROCS(0), h.levels[0].ny/crewMinRows)
	if last == 0 || n < 2 {
		return
	}
	cr := &crew{workers: make([]worker, n)}
	for i := range cr.workers {
		cr.workers[i].wake = make(chan struct{}, 1)
	}
	for l, lv := range h.levels[:last] {
		if lv.ny/crewMinRows < 2 {
			break
		}
		lv.split(h.levels[l+1])
		lv.crew = cr
	}
	cr.wg.Add(n - 1)
	for k := 1; k < n; k++ {
		go cr.serve(k)
	}
}

// detachCrew stops the attempt's crew, if any, and waits for its
// helpers to exit. It claims nothing, so it also returns when a panic
// unwound the caller out of a dispatch.
func (h *mgHier) detachCrew() {
	cr := h.levels[0].crew // a crew always splits the fine level
	if cr == nil {
		return
	}
	cr.quit.Store(true)
	cr.publish(0)
	cr.wg.Wait()
	for _, lv := range h.levels {
		lv.crew = nil
	}
}

// split cuts lv into ny/crewMinRows bands once; later attempts keep
// them and their scratch. Band 0 uses the level's own scratch.
func (lv *mgLevel) split(next *mgLevel) {
	if lv.bands != nil {
		return
	}
	nb := lv.ny / crewMinRows
	lv.bands = make([]band, nb)
	for b := range lv.bands {
		sc := lv.sc
		if b > 0 {
			sc = newLineScratch(lv.nz)
		}
		lv.bands[b] = band{
			lv: lv, next: next, sc: sc,
			y0: b * lv.ny / nb, y1: (b + 1) * lv.ny / nb,
			c0: b * next.ny / nb, c1: (b + 1) * next.ny / nb,
		}
	}
}

// publish starts the next generation with n bands (none when
// quitting): worker k of w owns bands [⌈kn/w⌉, ⌈(k+1)n/w⌉), the
// bands that start in its share of the rows. It then wakes parked
// helpers.
func (cr *crew) publish(n int) {
	cr.gen++
	w := len(cr.workers)
	for k := range cr.workers {
		lo, hi := (k*n+w-1)/w, ((k+1)*n+w-1)/w
		cr.workers[k].state.Store(uint64(cr.gen)<<32 | uint64(hi)<<16 | uint64(lo))
	}
	for k := 1; k < w; k++ {
		cr.workers[k].open()
	}
}

// work runs bands of generation gen for worker k until none is left
// to claim: its own from the front, then the others' from the back.
// The band that finishes the generation opens the caller's gate.
func (cr *crew) work(k int, gen uint32) {
	w := len(cr.workers)
	for j := 0; j < w; j++ {
		for {
			i, ok := cr.workers[(k+j)%w].take(gen, j > 0)
			if !ok {
				break
			}
			n := uint32(len(cr.cur))
			cr.cur[i].run()
			if cr.done.Add(1) == n {
				cr.workers[0].open()
			}
		}
	}
}

// serve is helper k's loop: wait for a new generation, work it.
func (cr *crew) serve(k int) {
	defer cr.wg.Done()
	w := &cr.workers[k]
	var seen uint32
	for {
		w.wait(func() bool { return uint32(w.state.Load()>>32) != seen })
		seen = uint32(w.state.Load() >> 32)
		if cr.quit.Load() {
			return
		}
		cr.work(k, seen)
	}
}

// dispatch runs every band's kernel and returns once all are done.
func (cr *crew) dispatch(bands []band) {
	cr.cur = bands
	cr.done.Store(0)
	cr.publish(len(bands))
	cr.work(0, cr.gen)
	n := uint32(len(bands))
	cr.workers[0].wait(func() bool { return cr.done.Load() == n })
}

// smooth relaxes one color of lv across its bands and returns the
// largest delta, combined as the serial sweep combines its columns'.
func (cr *crew) smooth(lv *mgLevel, color int, omega float64) float64 {
	for i := range lv.bands {
		b := &lv.bands[i]
		b.op, b.color, b.omega = opSmooth, color, omega
	}
	cr.dispatch(lv.bands)
	maxDelta := 0.0
	for i := range lv.bands {
		if d := lv.bands[i].delta; d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}

// transfer runs restriction or prolongation across lv's bands.
func (cr *crew) transfer(lv *mgLevel, op bandOp) {
	for i := range lv.bands {
		lv.bands[i].op = op
	}
	cr.dispatch(lv.bands)
}
