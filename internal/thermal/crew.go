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
// Each worker runs a fixed share: of a dispatch's n bands, worker k
// of w always runs [⌈kn/w⌉, ⌈(k+1)n/w⌉), the bands that start in its
// share of the rows, so the rows a core smooths are the rows it then
// restricts and prolongs. The caller sends the bands to each helper on
// that helper's own channel, runs its own share, and receives one
// "done" per helper; a helper that is descheduled delays its caller.
package thermal

import (
	"runtime"
	"sync"
)

const (
	// crewMinRows is the rows per band: a level splits into
	// ny/crewMinRows bands, and one with fewer than two stays serial.
	crewMinRows = 8
	// crewSpins is how many times a waiting side yields before it
	// blocks on its channel. The yields bridge most hand-offs without
	// a wake-up: on the 2-vCPU benchmark host a grid-64 V-cycle ran
	// about 12% slower without them. A spinning helper burns a core
	// through every serial stretch (coarse levels, convergence tests,
	// time-step bookkeeping), so CPU rises with the budget.
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

// crew is the caller (worker 0) and one helper goroutine per channel
// in helpers. Each channel holds one dispatch's bands and done one
// value per helper, so no send ever blocks: a helper has received its
// bands before it reports done, and the caller receives every done
// before its next dispatch.
type crew struct {
	helpers []chan []band
	done    chan struct{}
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
	cr := &crew{helpers: make([]chan []band, n-1), done: make(chan struct{}, n-1)}
	for l, lv := range h.levels[:last] {
		if lv.ny/crewMinRows < 2 {
			break
		}
		lv.split(h.levels[l+1])
		lv.crew = cr
	}
	cr.wg.Add(n - 1)
	for k := range cr.helpers {
		cr.helpers[k] = make(chan []band, 1)
		go cr.serve(k+1, cr.helpers[k])
	}
}

// detachCrew stops the attempt's crew, if any, and waits for its
// helpers to exit. It sends nothing that can block, so it also returns
// when a panic unwound the caller out of a dispatch.
func (h *mgHier) detachCrew() {
	cr := h.levels[0].crew // a crew always splits the fine level
	if cr == nil {
		return
	}
	for _, ch := range cr.helpers {
		close(ch)
	}
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

// share runs worker k's bands of a dispatch.
func (cr *crew) share(bands []band, k int) {
	n, w := len(bands), len(cr.helpers)+1
	for i := (k*n + w - 1) / w; i < ((k+1)*n+w-1)/w; i++ {
		bands[i].run()
	}
}

// serve is helper k's loop: run its share of each dispatch until its
// channel closes.
func (cr *crew) serve(k int, in <-chan []band) {
	defer cr.wg.Done()
	for {
		bands, ok := recv(in)
		if !ok {
			return
		}
		cr.share(bands, k)
		cr.done <- struct{}{}
	}
}

// dispatch runs every band's kernel and returns once all are done.
func (cr *crew) dispatch(bands []band) {
	for _, ch := range cr.helpers {
		ch <- bands
	}
	cr.share(bands, 0)
	for range cr.helpers {
		recv(cr.done)
	}
}

// recv receives from ch, yielding crewSpins times while it is empty
// before it blocks.
func recv[T any](ch <-chan T) (T, bool) {
	for range crewSpins {
		select {
		case v, ok := <-ch:
			return v, ok
		default:
			runtime.Gosched()
		}
	}
	v, ok := <-ch
	return v, ok
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
