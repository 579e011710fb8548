package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// pinHash accumulates the exact bits of results: floats by their
// IEEE-754 patterns, counters as fixed-width integers, names as
// length-prefixed bytes.
type pinHash struct{ h hash.Hash }

func newPinHash() *pinHash { return &pinHash{h: sha256.New()} }

func (p *pinHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.h.Write(b[:])
}

func (p *pinHash) f64(v float64) { p.u64(math.Float64bits(v)) }

func (p *pinHash) str(s string) {
	p.u64(uint64(len(s)))
	p.h.Write([]byte(s))
}

func (p *pinHash) sum() string { return hex.EncodeToString(p.h.Sum(nil)) }

// figure5Digest hashes every field of every Figure 5 bar.
func figure5Digest(res *Figure5Result) string {
	p := newPinHash()
	for _, name := range res.Benchmarks {
		p.str(name)
	}
	for _, row := range res.Rows {
		for _, m := range row {
			p.str(m.Benchmark)
			p.u64(uint64(m.Option))
			p.f64(m.CPMA)
			p.f64(m.BandwidthGBs)
			p.f64(m.BusPowerW)
			p.u64(m.OffDieBytes)
			p.u64(m.Refs)
			f := m.Faults
			for _, c := range []uint64{f.ECCChecks, f.Corrected, f.Uncorrectable,
				uint64(f.RetryCyclesAdded), f.Refetches, f.LinesPoisoned,
				f.Unrecovered, f.SensorReads} {
				p.u64(c)
			}
			p.u64(m.DRAMRemapped)
			p.u64(uint64(m.DRAMFaultCycles))
		}
	}
	return p.sum()
}

// table4Digest hashes every Table 4 row and both aggregates.
func table4Digest(res Table4Result) string {
	p := newPinHash()
	for _, r := range res.Rows {
		p.str(r.Name)
		p.f64(r.StagesPct)
		p.f64(r.GainPct)
		p.f64(r.PaperStagesPct)
		p.f64(r.PaperGainPct)
	}
	p.f64(res.TotalGainPct)
	p.f64(res.StagesEliminatedPct)
	return p.sum()
}

// TestPerfSimBitPins pins the exact bits of the replay and pipeline
// studies: Figure 5 at scale 0.1 on two seeds, and Table 4 at 20k
// instructions per profile. A change to how traces or programs are
// built, shared or scheduled must leave these digests alone; a change
// to what is simulated does not.
func TestPerfSimBitPins(t *testing.T) {
	ctx := context.Background()
	fig5 := map[uint64]string{
		1: "2b382aa967f4214702afa62b40b130b8f2f10b7c5f8b09e0b856fb2fe056bdfd",
		2: "a696e4e5b5e10ea8bb543a6aa307f47fa33c3a8c6ba12741efdda2495729ade9",
	}
	for _, seed := range []uint64{1, 2} {
		res, err := RunFigure5(ctx, RunSpec{Seed: seed, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if got := figure5Digest(res); got != fig5[seed] {
			t.Errorf("Figure 5 seed %d digest %s, want %s", seed, got, fig5[seed])
		}
	}
	res, err := RunTable4(ctx, RunSpec{Seed: 1}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	const table4 = "31cf475cb7d2ef3d27458b2e49206ede17bc3a944da4f94206f4ab8383ee5b62"
	if got := table4Digest(res); got != table4 {
		t.Errorf("Table 4 digest %s, want %s (total gain %.17g)", got, table4, res.TotalGainPct)
	}
}
