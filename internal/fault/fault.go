// Package fault implements seedable, deterministic fault injection for
// the die-stacked machine: stacked-DRAM bit flips filtered through a
// SECDED ECC model, whole-bank failures with address remapping,
// die-to-die via (TSV) lane failures that widen the effective access
// latency, and thermal-sensor faults (noise, offset, stuck-at).
//
// Determinism is a hard requirement, matching the rest of the
// simulator: every fault decision is a pure function of (Seed, domain,
// draw counter), so the same seed and the same access sequence
// reproduce the same fault schedule bit-for-bit on every platform.
// The injector never consults wall-clock time or global randomness.
package fault

import (
	"errors"
	"fmt"
	"math"

	"diestack/internal/obs"
)

// ErrAllBanksDead marks a bank-failure configuration that leaves a
// DRAM device with no live banks to remap into. Callers match it with
// errors.Is.
var ErrAllBanksDead = errors.New("fault: all DRAM banks dead")

// The fixed ECC recovery schedule.
const (
	// ECCRetryCycles is the added latency of a correctable ECC fix:
	// the controller re-reads the word and runs the corrector.
	ECCRetryCycles = 16
	// MaxRefetchRetries bounds the uncorrectable recovery loop.
	MaxRefetchRetries = 3
	// RefetchBackoffCycles is the first retry's backoff; each further
	// attempt doubles it (bounded by MaxRefetchRetries).
	RefetchBackoffCycles = 32
)

// maxDeadBankIndex bounds DeadBanks entries so the injector can track
// liveness in a single 64-bit mask.
const maxDeadBankIndex = 63

// Config describes the fault environment of one simulated machine.
// The zero value disables all injection.
type Config struct {
	// Seed selects the deterministic fault schedule. Same seed + same
	// access sequence = identical faults.
	Seed uint64

	// CorrectablePerMAccess is the expected number of single-bit
	// (SECDED-correctable) errors per million stacked-DRAM reads.
	CorrectablePerMAccess float64
	// UncorrectablePerMAccess is the expected number of multi-bit
	// (detectable, uncorrectable) errors per million stacked-DRAM reads.
	UncorrectablePerMAccess float64

	// DeadBanks lists stacked-DRAM bank indices that have failed
	// outright. Accesses aimed at a dead bank remap to the next live
	// bank, degrading capacity and adding conflicts.
	DeadBanks []int

	// TSVFailFrac is the fraction of die-to-die via lanes that have
	// failed, in [0, 0.9]. Lost lanes serialize transfers over the
	// survivors, widening every stacked-array access latency and bank
	// occupancy by 1/(1-frac).
	TSVFailFrac float64

	// SensorNoiseC is the standard deviation of gaussian noise added to
	// every thermal-sensor reading, in degrees C.
	SensorNoiseC float64
	// SensorOffsetC is a constant calibration error added to every
	// reading.
	SensorOffsetC float64
	// SensorStuckAt, when true, makes the sensor report SensorStuckAtC
	// regardless of the true temperature (a stuck-at sensor fault;
	// noise and offset are ignored).
	SensorStuckAt bool
	// SensorStuckAtC is the stuck reading.
	SensorStuckAtC float64
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool {
	return c.CorrectablePerMAccess > 0 || c.UncorrectablePerMAccess > 0 ||
		len(c.DeadBanks) > 0 || c.TSVFailFrac > 0 ||
		c.SensorNoiseC > 0 || c.SensorOffsetC != 0 || c.SensorStuckAt
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CorrectablePerMAccess", c.CorrectablePerMAccess},
		{"UncorrectablePerMAccess", c.UncorrectablePerMAccess},
	} {
		if r.v < 0 || r.v > 1e6 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s must be in [0, 1e6], got %v", r.name, r.v)
		}
	}
	if c.CorrectablePerMAccess+c.UncorrectablePerMAccess > 1e6 {
		return fmt.Errorf("fault: ECC rates sum to %v per million accesses, exceeding 1e6",
			c.CorrectablePerMAccess+c.UncorrectablePerMAccess)
	}
	seen := map[int]bool{}
	for _, b := range c.DeadBanks {
		if b < 0 || b > maxDeadBankIndex {
			return fmt.Errorf("fault: dead bank index %d out of [0,%d]", b, maxDeadBankIndex)
		}
		if seen[b] {
			return fmt.Errorf("fault: dead bank %d listed twice", b)
		}
		seen[b] = true
	}
	if c.TSVFailFrac < 0 || c.TSVFailFrac > 0.9 || math.IsNaN(c.TSVFailFrac) {
		return fmt.Errorf("fault: TSVFailFrac must be in [0, 0.9], got %v", c.TSVFailFrac)
	}
	if c.SensorNoiseC < 0 || math.IsNaN(c.SensorNoiseC) {
		return fmt.Errorf("fault: negative SensorNoiseC %v", c.SensorNoiseC)
	}
	if math.IsNaN(c.SensorOffsetC) || math.IsNaN(c.SensorStuckAtC) {
		return fmt.Errorf("fault: NaN sensor parameter")
	}
	return nil
}

// Stats aggregates injected faults and the recovery work they caused.
type Stats struct {
	// ECCChecks counts stacked-DRAM reads filtered through the SECDED
	// model.
	ECCChecks uint64
	// Corrected counts single-bit errors fixed in place (extra-latency
	// retry).
	Corrected uint64
	// Uncorrectable counts multi-bit errors (line invalidate+refetch).
	Uncorrectable uint64
	// RetryCyclesAdded accumulates the latency added by correctable
	// fixes and recovery retries.
	RetryCyclesAdded int64
	// Refetches counts main-memory refetches issued to recover
	// poisoned lines.
	Refetches uint64
	// LinesPoisoned counts cache lines invalidated by uncorrectable
	// errors.
	LinesPoisoned uint64
	// Unrecovered counts accesses that exhausted the bounded retry
	// budget and were served straight from the memory fill.
	Unrecovered uint64
	// SensorReads counts thermal-sensor samples taken through the
	// (possibly faulty) sensor model.
	SensorReads uint64
}

// Merge adds other's counters into s.
func (s *Stats) Merge(other Stats) {
	s.ECCChecks += other.ECCChecks
	s.Corrected += other.Corrected
	s.Uncorrectable += other.Uncorrectable
	s.RetryCyclesAdded += other.RetryCyclesAdded
	s.Refetches += other.Refetches
	s.LinesPoisoned += other.LinesPoisoned
	s.Unrecovered += other.Unrecovered
	s.SensorReads += other.SensorReads
}

// Publish adds the change in an injector's books from was to now to
// reg's injection-by-kind counters: fault_ecc_checks,
// fault_ecc_corrected, fault_ecc_uncorrectable, fault_refetches,
// fault_lines_poisoned, fault_unrecovered and fault_sensor_reads. A nil
// registry publishes nothing.
func Publish(reg *obs.Registry, was, now Stats) {
	if reg == nil {
		return
	}
	reg.Counter("fault_ecc_checks").Add(now.ECCChecks - was.ECCChecks)
	reg.Counter("fault_ecc_corrected").Add(now.Corrected - was.Corrected)
	reg.Counter("fault_ecc_uncorrectable").Add(now.Uncorrectable - was.Uncorrectable)
	reg.Counter("fault_refetches").Add(now.Refetches - was.Refetches)
	reg.Counter("fault_lines_poisoned").Add(now.LinesPoisoned - was.LinesPoisoned)
	reg.Counter("fault_unrecovered").Add(now.Unrecovered - was.Unrecovered)
	reg.Counter("fault_sensor_reads").Add(now.SensorReads - was.SensorReads)
}

// ECCOutcome classifies one read through the SECDED model.
type ECCOutcome uint8

const (
	// ECCClean means no error was injected.
	ECCClean ECCOutcome = iota
	// ECCCorrected means a single-bit flip was fixed in place at the
	// cost of an extra-latency retry.
	ECCCorrected
	// ECCUncorrectable means a multi-bit flip was detected; the line
	// must be invalidated and refetched.
	ECCUncorrectable
)

// String names the outcome.
func (o ECCOutcome) String() string {
	switch o {
	case ECCClean:
		return "clean"
	case ECCCorrected:
		return "corrected"
	case ECCUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ECCOutcome(%d)", uint8(o))
	}
}

// Draw domains keep the per-purpose random streams independent: the
// n-th ECC draw is the same whether or not any sensor was ever read.
const (
	domainECC uint64 = 0x65cc + iota
	domainSensor
)

// mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector is the per-machine fault source. It is not safe for
// concurrent use; create one per simulator, like the simulator itself.
type Injector struct {
	cfg     Config
	eccN    uint64
	sensorN uint64
	stats   Stats
}

// New builds an injector, returning an error for invalid configs.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// Stats returns a copy of the accumulated fault statistics.
func (in *Injector) Stats() Stats { return in.stats }

// Reset returns the injector to the state New left it in: its ECC and
// sensor draw counters restart the seed's schedule from the first draw,
// and the statistics are cleared.
func (in *Injector) Reset() {
	in.eccN, in.sensorN = 0, 0
	in.stats = Stats{}
}

// draw returns the n-th uniform [0,1) variate of the given domain.
func (in *Injector) draw(domain, n uint64) float64 {
	v := mix(in.cfg.Seed ^ domain*0x9e3779b97f4a7c15 ^ n*0xd1342543de82ef95)
	return float64(v>>11) / (1 << 53)
}

// CheckRead passes one stacked-DRAM read through the SECDED model and
// returns its outcome. Outcomes are scheduled deterministically from
// the seed and the read counter.
func (in *Injector) CheckRead() ECCOutcome {
	in.stats.ECCChecks++
	n := in.eccN
	in.eccN++
	pu := in.cfg.UncorrectablePerMAccess / 1e6
	pc := in.cfg.CorrectablePerMAccess / 1e6
	if pu == 0 && pc == 0 {
		return ECCClean
	}
	u := in.draw(domainECC, n)
	switch {
	case u < pu:
		in.stats.Uncorrectable++
		return ECCUncorrectable
	case u < pu+pc:
		in.stats.Corrected++
		return ECCCorrected
	default:
		return ECCClean
	}
}

// CountRetryCycles records latency added by ECC fixes and backoff.
func (in *Injector) CountRetryCycles(c int64) { in.stats.RetryCyclesAdded += c }

// CountRefetch records one recovery refetch from main memory.
func (in *Injector) CountRefetch() { in.stats.Refetches++ }

// CountPoisoned records one line invalidated by an uncorrectable error.
func (in *Injector) CountPoisoned() { in.stats.LinesPoisoned++ }

// CountUnrecovered records one access that exhausted its retry budget.
func (in *Injector) CountUnrecovered() { in.stats.Unrecovered++ }

// DRAMModel is the device-side view of the injector: it implements the
// dram package's FaultModel interface (bank remapping and TSV latency
// widening) without the dram package importing this one.
type DRAMModel struct {
	dead  uint64 // bitmask of dead banks
	widen float64
}

// DRAM returns the device-side fault model, or nil when neither bank
// nor TSV faults are configured (so callers can attach unconditionally).
func (in *Injector) DRAM() *DRAMModel {
	if len(in.cfg.DeadBanks) == 0 && in.cfg.TSVFailFrac == 0 {
		return nil
	}
	m := &DRAMModel{widen: 1 / (1 - in.cfg.TSVFailFrac)}
	for _, b := range in.cfg.DeadBanks {
		m.dead |= 1 << uint(b)
	}
	return m
}

// RemapBank redirects an access aimed at a dead bank to the next live
// bank (wrapping). A fully dead device returns the original bank; the
// owning configuration must reject that case up front (ErrAllBanksDead).
// A nil model (no bank or TSV faults configured) passes everything
// through, so a nil *DRAMModel stored in an interface stays harmless.
func (m *DRAMModel) RemapBank(bank, banks int) int {
	if m == nil || m.dead == 0 {
		return bank
	}
	for i := 0; i < banks; i++ {
		b := (bank + i) % banks
		if b > maxDeadBankIndex || m.dead>>uint(b)&1 == 0 {
			return b
		}
	}
	return bank
}

// WidenOccupancy stretches a latency or occupancy figure over the
// surviving die-to-die via lanes.
func (m *DRAMModel) WidenOccupancy(cycles int64) int64 {
	if m == nil || m.widen <= 1 || cycles <= 0 {
		return cycles
	}
	return int64(math.Ceil(float64(cycles) * m.widen))
}

// ValidateBanks checks a bank-failure configuration against a device's
// bank count: every dead index must exist and at least one bank must
// survive. The error wraps ErrAllBanksDead when nothing survives.
func (c Config) ValidateBanks(banks int) error {
	alive := banks
	for _, b := range c.DeadBanks {
		if b >= banks {
			return fmt.Errorf("fault: dead bank %d out of range for a %d-bank device", b, banks)
		}
		alive--
	}
	if alive <= 0 {
		return fmt.Errorf("fault: %d dead banks on a %d-bank device: %w",
			len(c.DeadBanks), banks, ErrAllBanksDead)
	}
	return nil
}

// Sensor returns the (possibly faulty) thermal sensor: a function from
// the true temperature to the sensed one. Stuck-at dominates; otherwise
// the reading is true + offset + gaussian noise, with the noise stream
// drawn deterministically from the seed and the sample counter.
func (in *Injector) Sensor() func(trueC float64) float64 {
	return func(trueC float64) float64 {
		in.stats.SensorReads++
		if in.cfg.SensorStuckAt {
			return in.cfg.SensorStuckAtC
		}
		out := trueC + in.cfg.SensorOffsetC
		if in.cfg.SensorNoiseC > 0 {
			n := in.sensorN
			in.sensorN++
			// Box-Muller from two counter-indexed uniforms.
			u1 := in.draw(domainSensor, 2*n)
			u2 := in.draw(domainSensor, 2*n+1)
			if u1 < 1e-300 {
				u1 = 1e-300
			}
			z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			out += in.cfg.SensorNoiseC * z
		}
		return out
	}
}
