// Package memhier implements the trace-driven multi-processor memory
// hierarchy simulator used for the Memory+Logic stacking study
// (Section 3 of the paper).
//
// The simulator replays dependency-annotated memory traces against a
// two-level hierarchy: per-core L1 instruction/data caches, a shared
// second-level cache (planar SRAM, stacked SRAM, or stacked DRAM with
// on-die tags), an off-die bus with finite bandwidth, and banked DDR
// main memory. It honors the dependency field of every trace record —
// a record is not issued before the record it depends on completes —
// and reports the paper's metrics: cycles per memory access (CPMA),
// off-die bandwidth, and bus power.
package memhier

import (
	"context"
	"errors"
	"fmt"
	"io"

	"diestack/internal/cache"
	"diestack/internal/dram"
	"diestack/internal/fault"
	"diestack/internal/obs"
	"diestack/internal/stats"
	"diestack/internal/trace"
)

// L2Kind selects the shared second-level cache implementation.
type L2Kind uint8

const (
	// L2SRAM is a conventional SRAM L2 with a fixed hit latency.
	L2SRAM L2Kind = iota
	// L2DRAM is a stacked DRAM cache: on-die SRAM tags plus a banked
	// DRAM data array reached over die-to-die vias.
	L2DRAM
)

// String names the L2 kind.
func (k L2Kind) String() string {
	switch k {
	case L2SRAM:
		return "sram"
	case L2DRAM:
		return "dram"
	default:
		return fmt.Sprintf("L2Kind(%d)", uint8(k))
	}
}

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of logical processors issuing references.
	Cores int
	// L1I and L1D are the per-core first-level caches.
	L1I, L1D cache.Config
	// L2 is the shared second-level cache geometry. For L2DRAM the
	// Latency field is the on-die tag lookup latency; the data access
	// goes through DRAMArray.
	L2 cache.Config
	// L2Type selects SRAM or stacked-DRAM L2.
	L2Type L2Kind
	// DRAMArray is the stacked DRAM data array (only for L2DRAM).
	DRAMArray dram.Config
	// Memory is the DDR main memory device; its Overhead models the
	// off-die interface so that a page-open access totals the paper's
	// 192 cycles.
	Memory dram.Config
	// BusBytesPerCycle is the off-die bus bandwidth in bytes per core
	// cycle (16 GB/s at 3.2 GHz = 5 B/cycle).
	BusBytesPerCycle float64
	// CoreGHz converts cycles to wall time for bandwidth reporting.
	CoreGHz float64
	// BusPicoJoulePerBit prices off-die bus traffic. The paper assumes
	// 20 mW per Gb/s, i.e. 20 pJ per bit.
	BusPicoJoulePerBit float64
	// WindowRecords bounds how far a core's issue can run ahead of an
	// incomplete older record (the reorder-buffer depth, in trace
	// records). Zero selects DefaultWindowRecords.
	WindowRecords int
	// Faults configures deterministic fault injection on the stacked
	// DRAM cache: ECC events on its reads, dead banks with remapping,
	// and die-to-die via lane failures. Main memory is assumed
	// protected by its own off-package ECC and is not perturbed. The
	// zero value disables injection.
	Faults fault.Config
}

// maxOutstanding bounds the number of in-flight L1 misses per core
// (the MSHR limit), sized like a Core-2-era machine.
const maxOutstanding = 12

// DefaultWindowRecords is the per-core reorder window used when
// Config.WindowRecords is zero. References issue out of order past a
// stalled dependent access until the window fills.
const DefaultWindowRecords = 48

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 255 {
		return fmt.Errorf("memhier: Cores must be in [1,255], got %d", c.Cores)
	}
	for _, sub := range []struct {
		name string
		cfg  cache.Config
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}} {
		if err := sub.cfg.Validate(); err != nil {
			return fmt.Errorf("memhier: %s: %w", sub.name, err)
		}
	}
	if c.L2Type == L2DRAM {
		if err := c.DRAMArray.Validate(); err != nil {
			return fmt.Errorf("memhier: DRAMArray: %w", err)
		}
	}
	if err := c.Memory.Validate(); err != nil {
		return fmt.Errorf("memhier: Memory: %w", err)
	}
	if c.BusBytesPerCycle <= 0 {
		return fmt.Errorf("memhier: BusBytesPerCycle must be positive, got %v", c.BusBytesPerCycle)
	}
	if c.CoreGHz <= 0 {
		return fmt.Errorf("memhier: CoreGHz must be positive, got %v", c.CoreGHz)
	}
	if c.BusPicoJoulePerBit < 0 {
		return fmt.Errorf("memhier: negative BusPicoJoulePerBit")
	}
	if c.WindowRecords < 0 {
		return fmt.Errorf("memhier: negative WindowRecords")
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("memhier: Faults: %w", err)
	}
	if c.L2Type == L2DRAM && len(c.Faults.DeadBanks) > 0 {
		if err := c.Faults.ValidateBanks(c.DRAMArray.Banks); err != nil {
			return fmt.Errorf("memhier: Faults: %w", err)
		}
	}
	return nil
}

// windowRecords resolves the configured or default reorder window.
func (c Config) windowRecords() int {
	if c.WindowRecords > 0 {
		return c.WindowRecords
	}
	return DefaultWindowRecords
}

// Result reports one simulation run.
type Result struct {
	// Records is the number of trace records replayed.
	Records uint64
	// Refs is the number of memory references the records represent
	// (records plus their same-line repeats).
	Refs uint64
	// Cycles is the wall-clock cycle at which the last reference
	// completed.
	Cycles int64
	// CPMA is cycles per memory access — wall-clock cycles divided by
	// the reference count, the paper's headline metric. With two cores
	// each issuing one reference per cycle its floor is 0.5.
	CPMA float64
	// RepHits counts the same-line repeat accesses replayed as L1 hits.
	RepHits uint64
	// AvgLatency is the mean issue-to-completion latency of a
	// reference in cycles.
	AvgLatency float64
	// LatencyP50, LatencyP95 and LatencyP99 are quantiles of the
	// per-record issue-to-completion latency (histogram-approximated;
	// repeats excluded).
	LatencyP50, LatencyP95, LatencyP99 float64
	// OffDieBytes counts all traffic over the off-die bus (fills +
	// writebacks).
	OffDieBytes uint64
	// BandwidthGBs is the average off-die bandwidth in GB/s.
	BandwidthGBs float64
	// BusPowerW is the average bus power implied by the traffic.
	BusPowerW float64
	// Cache and device statistics.
	L1I, L1D, L2 cache.Stats
	DRAMCache    dram.Stats
	Memory       dram.Stats
	// Invalidations counts cross-core L1 coherence invalidations.
	Invalidations uint64
	// Faults reports the injected-fault and recovery counters
	// (all-zero when injection is disabled).
	Faults fault.Stats
}

// Simulator replays traces against one machine configuration. It is
// not safe for concurrent use; create one per goroutine.
//
// A replay step has two halves. The front end (frontEnd) runs the
// record through the L1s and resolves its dependency; the back end —
// the Simulator's own methods over a runState — times the L2, DRAM and
// bus accesses that the front end's event carries. Run streams each
// record through both halves; Replay runs only the back end over an
// L1Log that FilterL1 recorded once for several machines.
type Simulator struct {
	cfg Config
	// fe is the front end Run streams records through; Replay reads
	// its L1 events from an L1Log instead.
	fe frontEnd
	// addrs is the L2-address scratch of Run's current event, sized
	// for the most one record can carry.
	addrs []uint64

	l2   *cache.Cache
	darr *dram.Device // stacked DRAM data array, nil for SRAM L2
	mem  *dram.Device
	inj  *fault.Injector // nil when fault injection is disabled

	busFree     int64
	offDieBytes uint64
	repHits     uint64
	latencies   *stats.Histogram
}

// books is a snapshot of the statistics a run keeps for its Result. A
// run publishes the change in them between two snapshots.
type books struct {
	records, refs, l1Hits uint64
	busBytes              uint64
	l2                    cache.Stats
	darr, mem             dram.Stats
	faults                fault.Stats
	latency               []int64
}

// books snapshots the simulator's statistics with st's record counts
// and the given count of L1 hits, which the caller takes from the front
// end or the log it replays.
func (s *Simulator) books(st *runState, l1Hits uint64) books {
	b := books{
		records: st.records, refs: st.refs, l1Hits: l1Hits,
		busBytes: s.offDieBytes,
		l2:       s.l2.Stats(),
		mem:      s.mem.Stats(),
		latency:  make([]int64, s.latencies.Buckets()),
	}
	for i := range b.latency {
		b.latency[i] = s.latencies.Count(i)
	}
	if s.darr != nil {
		b.darr = s.darr.Stats()
	}
	if s.inj != nil {
		b.faults = s.inj.Stats()
	}
	return b
}

// publish adds the change in the books from was to now to reg: the
// memhier_* counters and the memhier_latency_cycles histogram, the
// DRAM devices' dram_cache_* (with a DRAM L2) and dram_mem_* counters,
// and the injector's fault_* counters (with injection on). Each
// latency bucket of 4 cycles lies inside one registry bucket of 32, so
// the registry histogram holds exactly what observing each latency
// would have put there.
func (s *Simulator) publish(reg *obs.Registry, was, now books) {
	records, l1Hits := now.records-was.records, now.l1Hits-was.l1Hits
	l2Hits := now.l2.Hits - was.l2.Hits
	reg.Counter("memhier_records").Add(records)
	reg.Counter("memhier_refs").Add(now.refs - was.refs)
	reg.Counter("memhier_l1_hits").Add(l1Hits)
	reg.Counter("memhier_l1_misses").Add(records - l1Hits)
	reg.Counter("memhier_l2_hits").Add(l2Hits)
	reg.Counter("memhier_l2_misses").Add(now.l2.Accesses - was.l2.Accesses - l2Hits)
	reg.Counter("memhier_writebacks").Add(now.l2.Writebacks - was.l2.Writebacks)
	reg.Counter("memhier_bus_bytes").Add(now.busBytes - was.busBytes)
	h := reg.Histogram("memhier_latency_cycles", 0, 2048, 64)
	for i, n := range now.latency {
		if d := n - was.latency[i]; d > 0 {
			h.ObserveN(s.latencies.BucketLow(i), uint64(d))
		}
	}
	if s.darr != nil {
		dram.Publish(reg, "dram_cache", was.darr, now.darr)
	}
	dram.Publish(reg, "dram_mem", was.mem, now.mem)
	if s.inj != nil {
		fault.Publish(reg, was.faults, now.faults)
	}
}

// New builds a simulator, returning an error for invalid configs.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, fe: newFrontEnd(cfg), addrs: make([]uint64, 0, maxEventAddrs(cfg.Cores))}
	s.l2 = cache.New(cfg.L2)
	if cfg.L2Type == L2DRAM {
		s.darr = dram.New(cfg.DRAMArray)
	}
	s.mem = dram.New(cfg.Memory)
	if cfg.Faults.Enabled() {
		inj, err := fault.New(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("memhier: Faults: %w", err)
		}
		s.inj = inj
		// Attach only a real model: a typed-nil *DRAMModel in the
		// interface would put a no-op call on every DRAM access.
		if dm := inj.DRAM(); dm != nil && s.darr != nil {
			s.darr.AttachFaults(dm)
		}
	}
	// One-cycle buckets through the L2 range, coarser beyond; 0..2048
	// covers everything up to several memory round trips.
	s.latencies = stats.NewHistogram(0, 2048, 512)
	return s, nil
}

// Reset returns the simulator to the state New left it in, so one
// simulator can replay several traces in turn: the L1s and their
// coherence count, the L2 tags, both DRAM devices, the fault
// injector's draw counters, the bus, the traffic and repeat-hit totals
// and the latency histogram all start over. The attached fault model
// stays attached, and Run refills its own dependency window. Reset
// keeps every array and allocates nothing.
func (s *Simulator) Reset() {
	s.fe.reset()
	s.l2.Reset()
	if s.darr != nil {
		s.darr.Reset()
	}
	s.mem.Reset()
	if s.inj != nil {
		s.inj.Reset()
	}
	s.busFree = 0
	s.offDieBytes = 0
	s.repHits = 0
	s.latencies.Reset()
}

// depWindow is the size, in records, of Run's dependency window: the
// front end's record-ID table and the back end's completion table,
// both indexed by id mod depWindow. Dependencies in real traces reach
// back a bounded distance; a dependency whose id has left the window
// (or was overwritten by an aliasing id) completed long before the
// dependent record can issue, so it is treated as already complete.
// This bounds Run's memory for billion-record traces. FilterL1 resolves
// dependencies against the same window, so its log is exact, and
// sizes Replay's completion ring to the longest dependency distance it
// saw instead.
const depWindow = 1 << 20

// runState is the back end's per-run loop state; Run and Replay each
// start from a fresh one.
type runState struct {
	slot []int64 // per-core program-order issue slot
	// doneAt holds completion times at the slots the front end
	// resolves dependencies to: Run's record-ID window, or Replay's
	// ring indexed by record position.
	doneAt []int64
	// Per-core MSHR ring: the completion times of the last M in-flight
	// misses. A new reference cannot issue until the M-th previous miss
	// has completed, bounding memory-level parallelism the way a real
	// core's miss queue and reorder buffer do.
	mshr    [][]int64
	mshrPos []int
	// Per-core reorder window: a record cannot issue until the record
	// WindowRecords older than it has completed. Independent records
	// issue out of order past a stalled dependence up to this depth.
	rob    [][]int64
	robPos []int

	records, refs uint64
	wall, sumLat  int64
}

// newRunState returns a fresh loop state whose completion table has
// the given number of slots.
func newRunState(cfg Config, slots int) *runState {
	st := &runState{
		slot:   make([]int64, cfg.Cores),
		doneAt: make([]int64, slots),
	}
	st.mshr = make([][]int64, cfg.Cores)
	st.mshrPos = make([]int, cfg.Cores)
	for i := range st.mshr {
		st.mshr[i] = make([]int64, maxOutstanding)
	}
	robN := cfg.windowRecords()
	st.rob = make([][]int64, cfg.Cores)
	st.robPos = make([]int, cfg.Cores)
	for i := range st.rob {
		st.rob[i] = make([]int64, robN)
	}
	return st
}

// RunOptions configures a Run replay. The zero value replays the whole
// stream unobserved.
type RunOptions struct {
	// Obs, when non-nil, receives a "memhier/replay" span and, when the
	// run returns, the change in the simulator's statistics over the
	// run: memhier_records, memhier_refs, L1/L2 hit and miss counters,
	// memhier_writebacks, memhier_bus_bytes, a memhier_latency_cycles
	// histogram, the DRAM devices' row-buffer counters (dram_cache_*,
	// dram_mem_*) and the fault injector's counters (fault_*). The
	// replay loop itself never touches the registry.
	Obs *obs.Registry
}

// Run streams every record through the front end and the back end
// until the stream ends, observing cancellation via ctx (checked every
// 4096 records). The zero RunOptions replays the whole stream
// unobserved.
func (s *Simulator) Run(ctx context.Context, stream trace.Stream, opt RunOptions) (Result, error) {
	sp := opt.Obs.StartSpan("memhier/replay")
	defer sp.End()
	st := newRunState(s.cfg, depWindow)
	s.fe.resetWindow(depWindow)
	if reg := opt.Obs; reg != nil {
		was := s.books(st, s.fe.l1Hits())
		defer func() { s.publish(reg, was, s.books(st, s.fe.l1Hits())) }()
	}

	sinceCancel := 0
	for {
		if sinceCancel++; sinceCancel >= 4096 {
			sinceCancel = 0
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("memhier: replay canceled after %d records: %w", st.records, err)
			}
		}
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Result{}, fmt.Errorf("memhier: reading trace: %w", err)
		}
		if err := s.fe.check(rec); err != nil {
			return Result{}, err
		}
		dep := s.fe.resolve(rec)
		ev, addrs := s.fe.step(rec, s.addrs[:0])
		s.step(st, ev, addrs, dep, int(rec.ID%depWindow))
	}

	l1i, l1d := s.fe.stats()
	return s.result(st, l1i, l1d, s.fe.invals), nil
}

// step is the back end's half of a replay step. The record issues no
// earlier than its core's program slot, its dependency's completion
// (doneAt[dep]; dep < 0 when it has none), its core's M-th previous
// miss and its reorder window; the L2 accesses its L1 event carries
// are then timed from that cycle, and its completion is stored in
// doneAt[own].
func (s *Simulator) step(st *runState, ev event, addrs []uint64, dep, own int) {
	cpu := int(ev.cpu)
	l1Lat := s.cfg.L1D.Latency

	issue := st.slot[cpu]
	if dep >= 0 && st.doneAt[dep] > issue {
		issue = st.doneAt[dep]
	}
	if oldest := st.mshr[cpu][st.mshrPos[cpu]]; oldest > issue {
		issue = oldest
	}
	if oldest := st.rob[cpu][st.robPos[cpu]]; oldest > issue {
		issue = oldest
	}

	completion := s.access(issue, ev, addrs)
	if completion-issue > l1Lat {
		// The reference went past the L1: it held a miss slot.
		st.mshr[cpu][st.mshrPos[cpu]] = completion
		st.mshrPos[cpu] = ringNext(st.mshrPos[cpu], len(st.mshr[cpu]))
	}

	s.latencies.Add(float64(completion - issue))

	// Replay the same-line repeats as back-to-back L1 hits: one
	// issue slot each, completing L1-latency later. The program
	// slot advances one cycle per reference; dependence stalls do
	// not drag it forward — younger independent records may issue
	// at their own slots (out-of-order issue within the window).
	reps := int64(ev.reps)
	st.slot[cpu] += 1 + reps
	st.refs += uint64(1 + reps)
	st.sumLat += (completion - issue) + reps*l1Lat
	s.repHits += uint64(reps)
	repDone := issue + reps + l1Lat
	if repDone > completion {
		completion = repDone
	}

	st.rob[cpu][st.robPos[cpu]] = completion
	st.robPos[cpu] = ringNext(st.robPos[cpu], len(st.rob[cpu]))

	st.doneAt[own] = completion
	if completion > st.wall {
		st.wall = completion
	}
	st.records++
}

// ringNext advances a position in a ring of n slots. It is (p+1) % n
// without the integer division, which the per-record step cannot
// afford twice.
func ringNext(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}

// result aggregates the final Result from the loop state and the
// front end's L1 totals.
func (s *Simulator) result(st *runState, l1i, l1d cache.Stats, invals uint64) Result {
	if st.refs == 0 {
		return Result{}
	}
	res := Result{
		Records:       st.records,
		Refs:          st.refs,
		Cycles:        st.wall,
		CPMA:          float64(st.wall) / float64(st.refs),
		AvgLatency:    float64(st.sumLat) / float64(st.refs),
		LatencyP50:    s.latencies.Quantile(0.50),
		LatencyP95:    s.latencies.Quantile(0.95),
		LatencyP99:    s.latencies.Quantile(0.99),
		OffDieBytes:   s.offDieBytes,
		L1I:           l1i,
		L1D:           l1d,
		L2:            s.l2.Stats(),
		Memory:        s.mem.Stats(),
		Invalidations: invals,
		RepHits:       s.repHits,
	}
	if s.darr != nil {
		res.DRAMCache = s.darr.Stats()
	}
	if s.inj != nil {
		res.Faults = s.inj.Stats()
	}
	seconds := float64(st.wall) / (s.cfg.CoreGHz * 1e9)
	if seconds > 0 {
		res.BandwidthGBs = float64(s.offDieBytes) / seconds / 1e9
	}
	// pJ/bit x bits/s = pW; x1e-12 = W. GB/s x 8e9 = bits/s.
	res.BusPowerW = s.cfg.BusPicoJoulePerBit * res.BandwidthGBs * 8e9 * 1e-12
	return res
}

func addCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:    a.Accesses + b.Accesses,
		Hits:        a.Hits + b.Hits,
		SectorMiss:  a.SectorMiss + b.SectorMiss,
		LineMiss:    a.LineMiss + b.LineMiss,
		Evictions:   a.Evictions + b.Evictions,
		Writebacks:  a.Writebacks + b.Writebacks,
		Invalidates: a.Invalidates + b.Invalidates,
	}
}

// access times the L2 accesses of one reference's L1 event, beginning
// at cycle now, and returns the reference's completion cycle. A store's
// dirty flushes from the other cores' L1Ds enter the L2 at now, off the
// critical path of the store itself. A hit completes at L1 latency; a
// miss first writes a displaced dirty line back into the L2 (also off
// the critical path) and then fills from the L2.
func (s *Simulator) access(now int64, ev event, addrs []uint64) int64 {
	for _, a := range addrs[:ev.flushes] {
		s.l2Access(now, a, true)
	}
	t := now + s.cfg.L1D.Latency
	if ev.flags&evIfetch != 0 {
		t = now + s.cfg.L1I.Latency
	}
	if ev.flags&evHit != 0 {
		return t
	}
	addrs = addrs[ev.flushes:]
	if ev.flags&evWriteback != 0 {
		s.l2Access(t, addrs[0], true)
		addrs = addrs[1:]
	}
	return s.l2Access(t, addrs[0], false)
}

// l2Access reads (fill request) or writes (L1 writeback) the shared L2
// at time t, returning the completion cycle.
func (s *Simulator) l2Access(t int64, addr uint64, write bool) int64 {
	out := s.l2.Access(addr, write)
	tagDone := t + s.l2.Config().Latency

	if s.cfg.L2Type == L2SRAM {
		if out.Hit {
			return tagDone
		}
		s.handleL2Eviction(tagDone, out)
		// Fill the line from main memory over the bus.
		return s.memAccess(tagDone, addr, false, s.cfg.L2.LineBytes)
	}

	// Stacked DRAM L2: tags live on the CPU die (tagDone covers the
	// lookup); data lives in the stacked DRAM array.
	switch {
	case out.Hit:
		// Tag lookup (on the CPU die) and DRAM row access (through the
		// die-to-die vias) are overlapped, as in aggressive cache-DRAM
		// designs; the access completes when both have.
		dataDone, _ := s.darr.Access(t, addr, write)
		if dataDone < tagDone {
			dataDone = tagDone
		}
		// Reads pass through the SECDED ECC model; writes carry freshly
		// encoded check bits and cannot fault on the way in.
		if s.inj != nil && !write {
			switch s.inj.CheckRead() {
			case fault.ECCCorrected:
				s.inj.CountRetryCycles(fault.ECCRetryCycles)
				dataDone += fault.ECCRetryCycles
			case fault.ECCUncorrectable:
				dataDone = s.recoverUncorrectable(dataDone, addr)
			}
		}
		return dataDone
	case out.LineHit:
		// Sector miss: fetch just the missing 64 B sector from memory,
		// then deposit it in the DRAM array (deposit off critical path).
		fill := s.memAccess(tagDone, addr, false, sectorBytes(s.cfg.L2))
		s.darr.Access(fill, addr, true)
		return fill
	default:
		s.handleL2Eviction(tagDone, out)
		fill := s.memAccess(tagDone, addr, false, sectorBytes(s.cfg.L2))
		s.darr.Access(fill, addr, true)
		return fill
	}
}

// recoverUncorrectable handles an uncorrectable ECC event on a stacked
// DRAM cache read completing at time t: the poisoned line is dropped
// from the tags, the sector is refetched from main memory, re-deposited
// in the DRAM array, and re-checked. Refetches repeat with bounded
// exponential backoff; if the line still will not verify after the
// configured retry budget the access is served from the memory fill and
// the line stays invalid (counted as Unrecovered).
func (s *Simulator) recoverUncorrectable(t int64, addr uint64) int64 {
	s.inj.CountPoisoned()
	// Drop the poisoned line; a dirty line's data is lost, which the
	// SECDED model cannot repair — the refetch restores memory's copy.
	s.l2.Invalidate(addr)
	backoff := int64(fault.RefetchBackoffCycles)
	granule := sectorBytes(s.cfg.L2)
	for attempt := 0; ; attempt++ {
		s.inj.CountRefetch()
		fill := s.memAccess(t, addr, false, granule)
		done, _ := s.darr.Access(fill, addr, true)
		switch s.inj.CheckRead() {
		case fault.ECCUncorrectable:
			if attempt+1 >= fault.MaxRefetchRetries {
				s.inj.CountUnrecovered()
				// Served straight from the memory fill; the tags stay
				// invalid, so the next touch misses back to memory.
				return done
			}
			s.inj.CountRetryCycles(backoff)
			t = done + backoff
			backoff *= 2
		case fault.ECCCorrected:
			s.inj.CountRetryCycles(fault.ECCRetryCycles)
			return done + fault.ECCRetryCycles
		default:
			return done
		}
	}
}

// sectorBytes returns the fill granule for a cache: the sector size
// when sectored, else the full line.
func sectorBytes(c cache.Config) uint64 {
	if c.SectorBytes != 0 {
		return c.SectorBytes
	}
	return c.LineBytes
}

// handleL2Eviction writes dirty evicted data back to main memory.
func (s *Simulator) handleL2Eviction(t int64, out cache.Outcome) {
	if !out.Evicted || !out.Eviction.Dirty {
		return
	}
	granule := sectorBytes(s.cfg.L2)
	n := popcount(out.Eviction.DirtySectors)
	if s.cfg.L2.SectorBytes == 0 {
		n = 1
	}
	s.memAccess(t, out.Eviction.Addr, true, granule*uint64(n))
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// memAccess moves nbytes over the off-die bus and accesses main
// memory, returning the completion cycle. The bus is a shared FCFS
// resource with finite bandwidth; transfers queue behind each other.
func (s *Simulator) memAccess(t int64, addr uint64, write bool, nbytes uint64) int64 {
	slot := int64(float64(nbytes)/s.cfg.BusBytesPerCycle + 0.5)
	if slot < 1 {
		slot = 1
	}
	start := t
	if s.busFree > start {
		start = s.busFree
	}
	s.busFree = start + slot
	s.offDieBytes += nbytes

	done, _ := s.mem.Access(start+slot, addr, write)
	return done
}
