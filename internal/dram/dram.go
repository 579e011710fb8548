// Package dram models a banked DRAM device with open-page row buffers
// and the RAS/CAS/precharge timing the paper specifies in Table 3.
//
// Both the stacked DRAM cache (512 B pages, 16 address-interleaved
// banks, 64 B sectors) and the DDR main memory (4 KB pages, 16 banks)
// are instances of this model with different geometry and a different
// fixed interface overhead: the stacked cache talks over the die-to-die
// via interface while main memory pays the off-die bus.
package dram

import (
	"fmt"
	"math/bits"

	"diestack/internal/obs"
)

// Timing collects the per-bank latencies in core clock cycles.
type Timing struct {
	// PageOpen is the activate (RAS) latency to open a row.
	PageOpen int64
	// Precharge is the latency to close an open row.
	Precharge int64
	// Read is the column access (CAS) latency once the row is open.
	Read int64
	// Burst is how long a column access occupies the bank's data path.
	// Column accesses pipeline: a second access to an open row can
	// start Burst cycles after the first, long before the first's data
	// returns. Zero defaults to Read (fully serialized banks).
	Burst int64
}

// PaperTiming returns the bank delays from Table 3 of the paper: page
// open 50, precharge 54, read 50 (core cycles), with an 8-cycle burst
// occupancy (a 64-byte transfer on a DDR3-era interface). These apply
// to both the stacked L2 DRAM and the DDR main memory.
func PaperTiming() Timing {
	return Timing{PageOpen: 50, Precharge: 54, Read: 50, Burst: 8}
}

// burst returns the effective bank occupancy of a column access.
func (t Timing) burst() int64 {
	if t.Burst > 0 {
		return t.Burst
	}
	return t.Read
}

// Config describes a DRAM device.
type Config struct {
	// Banks is the number of independent banks; must be a power of two.
	Banks int
	// PageBytes is the row-buffer (page) size in bytes; power of two.
	PageBytes uint64
	// Timing holds the bank latencies.
	Timing Timing
	// Overhead is a fixed latency added to every access, modeling the
	// interface between requester and device (die-to-die vias for the
	// stacked cache, the off-die bus for DDR memory).
	Overhead int64
	// RowBuffers is the number of concurrently open rows each bank can
	// serve (default 1). Values above one approximate sub-array-level
	// parallelism plus an FR-FCFS scheduler that batches same-row
	// requests: interleaved sequential streams sharing a bank then keep
	// their rows open instead of ping-ponging precharges.
	RowBuffers int
	// PostedWrites, when true, models a write queue in front of the
	// banks: writes update row state and complete with normal latency
	// but do not hold the bank against later requests (the queue
	// drains in otherwise-idle bank cycles). Reads always occupy.
	PostedWrites bool
}

// rowBuffers resolves the configured or default open-row count.
func (c Config) rowBuffers() int {
	if c.RowBuffers > 0 {
		return c.RowBuffers
	}
	return 1
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Banks <= 0 || bits.OnesCount(uint(c.Banks)) != 1 {
		return fmt.Errorf("dram: Banks must be a positive power of two, got %d", c.Banks)
	}
	if c.PageBytes == 0 || bits.OnesCount64(c.PageBytes) != 1 {
		return fmt.Errorf("dram: PageBytes must be a positive power of two, got %d", c.PageBytes)
	}
	if c.Timing.PageOpen < 0 || c.Timing.Precharge < 0 || c.Timing.Read < 0 ||
		c.Timing.Burst < 0 || c.Overhead < 0 {
		return fmt.Errorf("dram: negative latency in config %+v", c)
	}
	if c.RowBuffers < 0 || c.RowBuffers > 16 {
		return fmt.Errorf("dram: RowBuffers must be in [0,16], got %d", c.RowBuffers)
	}
	return nil
}

// RowResult classifies how an access met the row buffer.
type RowResult uint8

const (
	// RowHit means the addressed row was already open.
	RowHit RowResult = iota
	// RowClosed means the bank had no open row (activate needed).
	RowClosed
	// RowConflict means a different row was open (precharge+activate).
	RowConflict
)

// String names the row result.
func (r RowResult) String() string {
	switch r {
	case RowHit:
		return "row-hit"
	case RowClosed:
		return "row-closed"
	case RowConflict:
		return "row-conflict"
	default:
		return fmt.Sprintf("RowResult(%d)", uint8(r))
	}
}

type bank struct {
	// rows holds the open-row identifiers, most recently used last;
	// length grows up to the configured RowBuffers.
	rows      []uint64
	busyUntil int64
}

// lookupRow reports whether row is open and refreshes its recency.
func (b *bank) lookupRow(row uint64) bool {
	for i, r := range b.rows {
		if r == row {
			copy(b.rows[i:], b.rows[i+1:])
			b.rows[len(b.rows)-1] = row
			return true
		}
	}
	return false
}

// openRow records row as open, evicting the least recently used row
// when the buffer set is full. It reports whether an eviction
// (precharge of another row) was needed.
func (b *bank) openRow(row uint64, max int) (evicted bool) {
	if len(b.rows) < max {
		b.rows = append(b.rows, row)
		return false
	}
	copy(b.rows, b.rows[1:])
	b.rows[len(b.rows)-1] = row
	return true
}

// Stats aggregates device activity.
type Stats struct {
	Accesses  uint64
	Hits      uint64 // row-buffer hits
	Closed    uint64 // activates into a closed bank
	Conflicts uint64 // precharge+activate
	// BankWait accumulates cycles requests spent waiting for a busy bank.
	BankWait int64
	// Remapped counts accesses redirected away from a dead bank by an
	// attached fault model.
	Remapped uint64
	// FaultCycles accumulates latency added by the fault model
	// (degraded die-to-die via lanes widening every access).
	FaultCycles int64
}

// Publish adds the change in a device's books from was to now to reg's
// RAS/CAS page-policy counters: <prefix>_accesses, _row_hits,
// _row_closed, _row_conflicts and _remapped. A nil registry publishes
// nothing.
func Publish(reg *obs.Registry, prefix string, was, now Stats) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + "_accesses").Add(now.Accesses - was.Accesses)
	reg.Counter(prefix + "_row_hits").Add(now.Hits - was.Hits)
	reg.Counter(prefix + "_row_closed").Add(now.Closed - was.Closed)
	reg.Counter(prefix + "_row_conflicts").Add(now.Conflicts - was.Conflicts)
	reg.Counter(prefix + "_remapped").Add(now.Remapped - was.Remapped)
}

// FaultModel lets a fault injector perturb device behaviour without
// this package depending on the injector (fault.Injector.DRAM returns
// an implementation). Methods must be deterministic functions of their
// arguments and the model's fixed configuration, preserving the
// simulator's reproducibility guarantee.
type FaultModel interface {
	// RemapBank redirects an access aimed at a dead bank to a live
	// one; live banks pass through unchanged.
	RemapBank(bank, banks int) int
	// WidenOccupancy stretches a latency or occupancy figure to model
	// transfers serialized over surviving die-to-die via lanes.
	WidenOccupancy(cycles int64) int64
}

// Device is a banked DRAM with open-page policy: rows stay open until a
// conflicting access precharges them.
type Device struct {
	cfg       Config
	banks     []bank
	bankShift uint
	bankMask  uint64
	stats     Stats
	faults    FaultModel
}

// New builds a Device from cfg. It panics on invalid configuration;
// configs are produced by code, not external input.
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Device{
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks),
		bankShift: uint(bits.TrailingZeros64(cfg.PageBytes)),
		bankMask:  uint64(cfg.Banks - 1),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// AttachFaults installs a fault model consulted on every access. A nil
// model restores fault-free behaviour. Attach before the first access;
// remapping mid-run would tear open rows away from their banks.
func (d *Device) AttachFaults(fm FaultModel) { d.faults = fm }

// Bank returns the bank index addr maps to. Pages interleave across
// banks with the row bits XOR-folded into the index, the standard
// controller trick that keeps equal-stride streams from different
// structures off the same bank.
func (d *Device) Bank(addr uint64) int {
	page := addr >> d.bankShift
	row := page / uint64(d.cfg.Banks)
	// Fibonacci hash of the row permutes the plain page-interleave so
	// that same-offset streams from different structures spread out.
	perm := (row * 0x9e3779b97f4a7c15) >> 32
	return int((page ^ perm) & d.bankMask)
}

// row returns the row (page) identifier within the bank for addr. The
// full page number is used: page -> (bank, row) stays injective under
// the hashed bank function.
func (d *Device) row(addr uint64) uint64 {
	return addr >> d.bankShift
}

// Access issues a read or write of addr at time now and returns the
// completion time and the row-buffer outcome. Requests to a busy bank
// queue behind it (FCFS per bank). Writes and reads share the same
// column timing in this model, matching the paper's single "Read"
// figure.
func (d *Device) Access(now int64, addr uint64, isWrite bool) (done int64, res RowResult) {
	bankIdx := d.Bank(addr)
	if d.faults != nil {
		if nb := d.faults.RemapBank(bankIdx, d.cfg.Banks); nb != bankIdx {
			d.stats.Remapped++
			bankIdx = nb
		}
	}
	b := &d.banks[bankIdx]
	row := d.row(addr)

	start := now
	if b.busyUntil > start {
		d.stats.BankWait += b.busyUntil - start
		start = b.busyUntil
	}

	t := d.cfg.Timing
	var lat, occ int64
	switch {
	case b.lookupRow(row):
		res = RowHit
		lat = t.Read
		occ = t.burst()
		d.stats.Hits++
	default:
		if b.openRow(row, d.cfg.rowBuffers()) {
			res = RowConflict
			lat = t.Precharge + t.PageOpen + t.Read
			occ = t.Precharge + t.PageOpen + t.burst()
			d.stats.Conflicts++
		} else {
			res = RowClosed
			lat = t.PageOpen + t.Read
			occ = t.PageOpen + t.burst()
			d.stats.Closed++
		}
	}
	d.stats.Accesses++

	if d.faults != nil {
		// Lost die-to-die via lanes serialize the transfer over the
		// survivors: both the requester-visible latency and the bank
		// occupancy stretch.
		wlat := d.faults.WidenOccupancy(lat)
		d.stats.FaultCycles += wlat - lat
		lat = wlat
		occ = d.faults.WidenOccupancy(occ)
	}

	if !(isWrite && d.cfg.PostedWrites) {
		b.busyUntil = start + occ
	}
	return start + lat + d.cfg.Overhead, res
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// Reset returns the device to the state New left it in: every bank
// closed and idle, and the statistics cleared. An attached fault model
// stays attached. Reset keeps the banks' open-row buffers and
// allocates nothing.
func (d *Device) Reset() {
	for i := range d.banks {
		b := &d.banks[i]
		b.rows = b.rows[:0]
		b.busyUntil = 0
	}
	d.stats = Stats{}
}
