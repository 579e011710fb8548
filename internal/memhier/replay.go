package memhier

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"diestack/internal/cache"
	"diestack/internal/obs"
	"diestack/internal/trace"
)

// frontEnd is the timing-free half of a replay step: the per-core L1s,
// the cross-core coherence invalidations, and dependency resolution
// against the record-ID window. Nothing it computes depends on the L2,
// the DRAM devices or timing — only on the order of the records — so
// one front-end pass over a trace serves every machine that shares its
// L1s.
type frontEnd struct {
	l1i, l1d []*cache.Cache
	// invals counts cross-core L1 coherence invalidations.
	invals uint64
	// doneID holds, per window slot, the id of the last record stored
	// there, or emptySlot. Its length is a power of two and a record's
	// slot is its id modulo that length.
	doneID []uint64
}

// emptySlot marks a dependency-window slot no record has filled.
const emptySlot = ^uint64(0)

func newFrontEnd(cfg Config) frontEnd {
	var f frontEnd
	for i := 0; i < cfg.Cores; i++ {
		f.l1i = append(f.l1i, cache.New(cfg.L1I))
		f.l1d = append(f.l1d, cache.New(cfg.L1D))
	}
	return f
}

// reset empties the L1s and zeroes the invalidation count, keeping the
// dependency window.
func (f *frontEnd) reset() {
	for i := range f.l1d {
		f.l1i[i].Reset()
		f.l1d[i].Reset()
	}
	f.invals = 0
}

// resetWindow installs an empty dependency window of the given
// power-of-two size.
func (f *frontEnd) resetWindow(size int) {
	f.doneID = make([]uint64, size)
	for i := range f.doneID {
		f.doneID[i] = emptySlot
	}
}

// check refuses a record naming a core the machine does not have.
func (f *frontEnd) check(rec trace.Record) error {
	if int(rec.CPU) >= len(f.l1d) {
		return fmt.Errorf("memhier: record %d names cpu %d but machine has %d cores",
			rec.ID, rec.CPU, len(f.l1d))
	}
	return nil
}

// event is one record's L1 outcome: everything the back end needs to
// time it. The L2 addresses it carries travel beside it in access
// order — first its dirty flushes from other cores' L1Ds, then the
// dirty line its own L1 displaced, then, on a miss, the demand fill.
type event struct {
	cpu, reps uint8
	flags     uint8
	// flushes is the number of dirty flushes; a store flushes at most
	// one copy per other core, and Config caps cores at 255.
	flushes uint8
	// dep is, in an L1Log, how many records back the record's
	// dependency is (0: none, or no longer in the ID window). Run
	// passes the dependency's window slot alongside instead.
	dep uint32
}

// event flags.
const (
	evHit       uint8 = 1 << iota // the reference hit its L1
	evIfetch                      // the reference went to the L1I
	evWriteback                   // the miss displaced a dirty L1 line
)

// addrCount returns how many L2 addresses the event carries.
func (e event) addrCount() int {
	n := int(e.flushes)
	if e.flags&evWriteback != 0 {
		n++
	}
	if e.flags&evHit == 0 {
		n++
	}
	return n
}

// maxEventAddrs is the most L2 addresses one event can carry on a
// machine with the given core count: a flush from every other core, a
// writeback and a fill.
func maxEventAddrs(cores int) int { return cores + 1 }

// resolve looks the record's dependency up in the window and then
// stores the record's own id there. It returns the window slot holding
// the dependency, or -1 when the record has none or the dependency's
// id is no longer in the window.
func (f *frontEnd) resolve(rec trace.Record) (dep int) {
	mask := uint64(len(f.doneID) - 1)
	dep = -1
	if rec.HasDep() {
		if w := rec.Dep & mask; f.doneID[w] == rec.Dep {
			dep = int(w)
		}
	}
	f.doneID[rec.ID&mask] = rec.ID
	return dep
}

// step runs one checked record through the L1s, appending its event's
// L2 addresses to addrs.
func (f *frontEnd) step(rec trace.Record, addrs []uint64) (ev event, _ []uint64) {
	cpu := int(rec.CPU)
	ev = event{cpu: rec.CPU, reps: rec.Reps}
	l1 := f.l1d[cpu]
	if rec.Kind == trace.Ifetch {
		l1 = f.l1i[cpu]
		ev.flags |= evIfetch
	}
	write := rec.Kind == trace.Store
	if write {
		// Coherence: every other core's L1D copy of the line is
		// invalidated, and a dirty copy is flushed into the L2.
		for i, other := range f.l1d {
			if i == cpu {
				continue
			}
			if e, ok := other.Invalidate(rec.Addr); ok {
				f.invals++
				if e.Dirty {
					addrs = append(addrs, e.Addr)
					ev.flushes++
				}
			}
		}
	}
	out := l1.Access(rec.Addr, write)
	if out.Hit {
		ev.flags |= evHit
		return ev, addrs
	}
	if out.Evicted && out.Eviction.Dirty {
		addrs = append(addrs, out.Eviction.Addr)
		ev.flags |= evWriteback
	}
	return ev, append(addrs, rec.Addr)
}

// stats totals the L1 statistics over all cores.
func (f *frontEnd) stats() (l1i, l1d cache.Stats) {
	for i := range f.l1d {
		l1i = addCacheStats(l1i, f.l1i[i].Stats())
		l1d = addCacheStats(l1d, f.l1d[i].Stats())
	}
	return l1i, l1d
}

// l1Hits totals the L1 hits over all cores. Each record accesses one
// L1 once, so the rest of the records missed.
func (f *frontEnd) l1Hits() uint64 {
	l1i, l1d := f.stats()
	return l1i.Hits + l1d.Hits
}

// addrChunk is the capacity, in addresses, of one L1Log address chunk,
// and the most events one event chunk holds.
const addrChunk = 1 << 16

// L1Log is the front end's record of one in-memory trace: an L1 event
// per record and the L2 addresses those events carry. Every machine
// with the same core count and L1 geometry sees exactly these events,
// so a log filtered once can be replayed against any number of L2
// back ends. It is read-only once built and safe to Replay from
// several goroutines at once, until it is passed to FilterL1 for reuse.
type L1Log struct {
	cores    int
	l1i, l1d cache.Config

	// events holds one event per record in order, in chunks of at most
	// addrChunk events, so the log never copies itself to grow and a
	// reuse can keep the chunks of the trace before.
	events [][]event
	// addrs holds the events' L2 addresses in order, in chunks of
	// addrChunk capacity that no event's addresses straddle, so the
	// log never copies itself to grow.
	addrs [][]uint64
	// ring is the size of the back end's completion ring: the smallest
	// power of two above the longest dependency distance in events.
	ring int

	l1iStats, l1dStats cache.Stats
	invals             uint64
}

// SizedStream is a trace that reports its record count before it is
// read, such as a trace.SliceStream or a workload.Stream.
type SizedStream interface {
	trace.Stream
	Len() int
}

// FilterL1 runs the front end of cfg once over the records of src and
// records each record's L1 event; src.Len() sizes the log's event
// chunks. Records are read one at a time, so the caller need not hold
// the whole trace. A non-nil reuse is a log no replay reads any more:
// FilterL1 fills its chunks, emptied, before it allocates more, drops
// those it does not need and returns reuse, holding the new log; on
// error its contents are undefined. With nil, it builds a new log.
// Dependencies resolve against the same record-ID window Run uses, so
// replaying the log gives the Result Run gives on the same records,
// bit for bit. The window starts at the smallest power of two above
// src.Len()-1, the largest id of a trace numbered from 0, and doubles,
// up to depWindow, whenever a record's id does not fit. While it is
// smaller than depWindow every id seen sits at slot id, so growing it
// with empty slots changes no lookup.
//
// The window is implicit while every record's id is its position, as
// in every generated trace and tracegen file: slot s then holds the
// largest position below the current one that is congruent to s, so
// a dependency resolves iff it is older than the record by at most
// the window's size, and its distance is the difference of the ids.
// The first record out of place materializes the window (slotWindow)
// and the lookup table takes over from there.
func FilterL1(ctx context.Context, cfg Config, src SizedStream, reuse *L1Log) (*L1Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := src.Len()
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("memhier: %d records is more than an L1 log holds", n)
	}
	window := min(depWindow, 1<<bits.Len(uint(max(n-1, 0))))
	fe := newFrontEnd(cfg)
	// pos holds the position of the record in each window slot; both
	// it and fe.doneID stay nil while the window is implicit.
	var pos []uint32
	mask := uint64(window - 1)

	lg := reuse
	if lg == nil {
		lg = new(L1Log)
	}
	// Chunk j of the new log is spare chunk j emptied, while there is
	// one: it is taken before the new log's outer slice, which shares
	// the spare one's array, overwrites it.
	spareEvents, spareAddrs := lg.events, lg.addrs
	*lg = L1Log{cores: cfg.Cores, l1i: cfg.L1I, l1d: cfg.L1D,
		events: spareEvents[:0], addrs: spareAddrs[:0]}
	var evs []event
	chunk := nextChunk(spareAddrs, 0, max(addrChunk, maxEventAddrs(cfg.Cores)))
	longest := 0
	i := 0
	for ; ; i++ {
		if i%4096 == 4095 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("memhier: L1 filter canceled after %d records: %w", i, err)
			}
		}
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("memhier: reading trace: %w", err)
		}
		if i == n {
			return nil, fmt.Errorf("memhier: trace holds more than the %d records it reported", n)
		}
		if err := fe.check(rec); err != nil {
			return nil, err
		}
		if pos == nil && rec.ID != uint64(i) {
			pos = fe.slotWindow(window, i)
		}
		if pos != nil && rec.ID > mask && len(pos) < depWindow {
			pos = fe.growWindow(pos, rec.ID)
			mask = uint64(len(pos) - 1)
		}
		d := 0
		if pos == nil {
			if rec.HasDep() && rec.Dep < rec.ID && rec.ID-rec.Dep <= uint64(window) {
				d = int(rec.ID - rec.Dep)
			}
		} else {
			if dep := fe.resolve(rec); dep >= 0 {
				d = i - int(pos[dep])
			}
			pos[rec.ID&mask] = uint32(i)
		}
		if len(chunk)+maxEventAddrs(cfg.Cores) > cap(chunk) {
			lg.addrs = append(lg.addrs, chunk)
			chunk = nextChunk(spareAddrs, len(lg.addrs), cap(chunk))
		}
		if len(evs) == cap(evs) {
			if evs != nil {
				lg.events = append(lg.events, evs)
			}
			evs = nextChunk(spareEvents, len(lg.events), min(addrChunk, n-i))
		}
		ev, addrs := fe.step(rec, chunk)
		chunk = addrs
		ev.dep = uint32(d)
		longest = max(longest, d)
		evs = append(evs, ev)
	}
	if evs != nil {
		lg.events = append(lg.events, evs)
	}
	lg.addrs = append(lg.addrs, chunk)
	// The spare chunks past the new log's are not needed: clear them
	// from the array the new log may share, so they can be collected.
	if k := len(lg.events); k < len(spareEvents) {
		clear(spareEvents[k:])
	}
	if k := len(lg.addrs); k < len(spareAddrs) {
		clear(spareAddrs[k:])
	}
	lg.ring = 1 << bits.Len(uint(longest))
	lg.l1iStats, lg.l1dStats = fe.stats()
	lg.invals = fe.invals
	return lg, nil
}

// nextChunk returns spare chunk j emptied or, past the spare chunks, a
// new chunk of capacity c.
func nextChunk[T any](spare [][]T, j, c int) []T {
	if j < len(spare) {
		return spare[j][:0]
	}
	return make([]T, 0, c)
}

// slotWindow materializes the implicit window of the given size as it
// stands before position i, every earlier record's id being its
// position: each slot holds the largest position below i congruent to
// it, or stays empty. It returns the records' positions by slot.
func (f *frontEnd) slotWindow(size, i int) []uint32 {
	f.resetWindow(size)
	pos := make([]uint32, size)
	mask := size - 1
	for j := max(i-size, 0); j < i; j++ {
		f.doneID[j&mask] = uint64(j)
		pos[j&mask] = uint32(j)
	}
	return pos
}

// growWindow doubles the dependency window, and pos beside it, until
// it holds id or reaches depWindow. Every id seen so far is below the
// old size and keeps its slot; the new slots are empty.
func (f *frontEnd) growWindow(pos []uint32, id uint64) []uint32 {
	size := len(pos)
	for uint64(size) <= id && size < depWindow {
		size *= 2
	}
	old := f.doneID
	f.resetWindow(size)
	copy(f.doneID, old)
	grown := make([]uint32, size)
	copy(grown, pos)
	return grown
}

// l1Hits counts the L1 hits among the log's first n events.
func (lg *L1Log) l1Hits(n uint64) uint64 {
	var hits uint64
	for _, evs := range lg.events {
		evs = evs[:min(n, uint64(len(evs)))]
		for _, ev := range evs {
			if ev.flags&evHit != 0 {
				hits++
			}
		}
		n -= uint64(len(evs))
	}
	return hits
}

// Replay runs the simulator's back end over a filtered log: the L2,
// DRAM and bus timing of every record, with its L1 outcome taken from
// the log. The Result equals Run's on the records the log was filtered
// from. The log must come from a machine with this one's core count
// and L1 geometry. reg receives what RunOptions.Obs receives from Run:
// a span, and the change in the statistics when the replay returns,
// with the L1 hits counted from the events it replayed. The replay
// checks ctx every 4096 records.
func (s *Simulator) Replay(ctx context.Context, lg *L1Log, reg *obs.Registry) (Result, error) {
	if lg.cores != s.cfg.Cores || lg.l1i != s.cfg.L1I || lg.l1d != s.cfg.L1D {
		return Result{}, fmt.Errorf("memhier: L1 log was filtered for %d cores with L1I %+v and L1D %+v; machine has %d cores with L1I %+v and L1D %+v",
			lg.cores, lg.l1i, lg.l1d, s.cfg.Cores, s.cfg.L1I, s.cfg.L1D)
	}
	sp := reg.StartSpan("memhier/replay")
	defer sp.End()
	st := newRunState(s.cfg, lg.ring)
	if reg != nil {
		was := s.books(st, 0)
		defer func() { s.publish(reg, was, s.books(st, lg.l1Hits(st.records))) }()
	}
	mask := lg.ring - 1
	chunks, chunk, next := lg.addrs[1:], lg.addrs[0], 0
	i := 0
	for _, evs := range lg.events {
		for _, ev := range evs {
			if i%4096 == 4095 {
				if err := ctx.Err(); err != nil {
					return Result{}, fmt.Errorf("memhier: replay canceled after %d records: %w", i, err)
				}
			}
			dep := -1
			if ev.dep != 0 {
				dep = (i - int(ev.dep)) & mask
			}
			n := ev.addrCount()
			if next+n > len(chunk) {
				// The filter started a new chunk before this event.
				chunk, chunks, next = chunks[0], chunks[1:], 0
			}
			s.step(st, ev, chunk[next:next+n], dep, i&mask)
			next += n
			i++
		}
	}
	return s.result(st, lg.l1iStats, lg.l1dStats, lg.invals), nil
}
