package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func l1Cfg() Config {
	// Paper Table 3: L1D 32KB, 64B line, 8-way, 4 cyc.
	return Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Latency: 4}
}

func dramCfg() Config {
	// Paper Table 3: stacked DRAM, 512B page, 64B sectors.
	return Config{SizeBytes: 32 << 20, LineBytes: 512, Ways: 16, Latency: 0, SectorBytes: 64}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"l1", l1Cfg(), true},
		{"dram sectored", dramCfg(), true},
		{"zero size", Config{LineBytes: 64, Ways: 1}, false},
		{"non pow2 size", Config{SizeBytes: 3000, LineBytes: 64, Ways: 1}, false},
		{"line > size", Config{SizeBytes: 64, LineBytes: 128, Ways: 1}, false},
		{"zero ways", Config{SizeBytes: 1024, LineBytes: 64, Ways: 0}, false},
		{"ways > lines", Config{SizeBytes: 128, LineBytes: 64, Ways: 4}, false},
		{"sector > line", Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, SectorBytes: 128}, false},
		{"non pow2 sector", Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, SectorBytes: 48}, false},
		{"negative latency", Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: -1}, false},
		{"fully assoc", Config{SizeBytes: 1024, LineBytes: 64, Ways: 16}, true},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSectors(t *testing.T) {
	if l1Cfg().Sectors() != 1 {
		t.Error("non-sectored cache should report 1 sector")
	}
	if dramCfg().Sectors() != 8 {
		t.Errorf("512/64 = %d sectors, want 8", dramCfg().Sectors())
	}
}

func TestSets(t *testing.T) {
	if got := l1Cfg().Sets(); got != 64 {
		t.Errorf("L1 sets = %d, want 64", got)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(l1Cfg())
	if out := c.Access(0x1000, false); out.Hit || out.LineHit {
		t.Fatalf("cold access hit: %+v", out)
	}
	if out := c.Access(0x1000, false); !out.Hit {
		t.Fatal("second access should hit")
	}
	if out := c.Access(0x1004, false); !out.Hit {
		t.Fatal("same line should hit")
	}
	if out := c.Access(0x1040, false); out.Hit {
		t.Fatal("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.LineMiss != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Tiny direct-mapped-ish cache: 2 ways, 2 sets, 64B lines.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 2})
	// Set 0 holds lines at stride 128.
	c.Access(0, false)   // A -> set 0
	c.Access(128, false) // B -> set 0
	c.Access(0, false)   // touch A; B is now LRU
	out := c.Access(256, false)
	if !out.Evicted || out.Eviction.Addr != 128 {
		t.Fatalf("expected eviction of LRU line 128, got %+v", out)
	}
	if !c.probe(0) {
		t.Fatal("MRU line A was evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Access(0, true)           // dirty A in set 0
	out := c.Access(128, false) // evicts A
	if !out.Evicted || !out.Eviction.Dirty || out.Eviction.Addr != 0 {
		t.Fatalf("dirty eviction missing: %+v", out)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
	// Clean eviction produces no writeback.
	out = c.Access(0, false)
	if !out.Evicted || out.Eviction.Dirty {
		t.Fatalf("clean eviction wrong: %+v", out)
	}
}

func TestSectoredBehaviour(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 512, Ways: 2, SectorBytes: 64})
	// First touch: line miss.
	out := c.Access(0, false)
	if out.Hit || out.LineHit {
		t.Fatalf("cold: %+v", out)
	}
	// Different sector in same line: sector miss, line hit.
	out = c.Access(64, false)
	if out.Hit || !out.LineHit {
		t.Fatalf("sector miss should be LineHit: %+v", out)
	}
	// Same sector again: full hit.
	if out = c.Access(64, false); !out.Hit {
		t.Fatalf("sector revisit should hit: %+v", out)
	}
	s := c.Stats()
	if s.SectorMiss != 1 || s.LineMiss != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSectoredDirtyMask(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 512, Ways: 1, SectorBytes: 64})
	c.Access(0, true)   // sector 0 dirty
	c.Access(128, true) // sector 2 dirty
	c.Access(192, false)
	out := c.Access(1024, false) // same set as line 0 (2 sets x 512B) -> evict
	if !out.Evicted || !out.Eviction.Dirty {
		t.Fatal("expected dirty eviction")
	}
	if out.Eviction.DirtySectors != 0b101 {
		t.Fatalf("DirtySectors = %b, want 101", out.Eviction.DirtySectors)
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 2})
	c.Access(0, false)
	c.Access(128, false)
	before := c.Stats()
	if !c.probe(0) || !c.probe(128) || c.probe(256) {
		t.Fatal("probe results wrong")
	}
	if c.Stats() != before {
		t.Fatal("probe changed stats")
	}
	// probe must not refresh LRU: line 0 is LRU, a new line evicts it.
	out := c.Access(256, false)
	if !out.Evicted || out.Eviction.Addr != 0 {
		t.Fatalf("probe refreshed LRU: %+v", out)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(l1Cfg())
	c.Access(0x2000, true)
	ev, ok := c.Invalidate(0x2000)
	if !ok || !ev.Dirty {
		t.Fatalf("invalidate of dirty line: %+v (ok=%v)", ev, ok)
	}
	if c.probe(0x2000) {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(0x2000); ok {
		t.Fatal("second invalidate should report absent")
	}
	if c.Stats().Invalidates != 1 {
		t.Fatalf("Invalidates = %d", c.Stats().Invalidates)
	}
}

func TestOccupancy(t *testing.T) {
	c := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 2})
	if c.occupancy() != 0 {
		t.Fatal("new cache should be empty")
	}
	c.Access(0, false)
	c.Access(64, false)
	if got := c.occupancy(); got != 0.5 {
		t.Fatalf("occupancy = %v, want 0.5", got)
	}
}

// Property: after accessing an address, probe reports it present;
// evicted addresses are absent. Uses a small cache to force traffic.
func TestPresenceInvariantQuick(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
		present := make(map[uint64]bool)
		for _, a := range addrs {
			addr := uint64(a)
			out := c.Access(addr, a%2 == 0)
			line := addr &^ 63
			present[line] = true
			if out.Evicted {
				delete(present, out.Eviction.Addr)
			}
			if !c.probe(addr) {
				return false // just-accessed address must be present
			}
		}
		// Every address we believe present must probe true.
		for line, ok := range present {
			if ok && !c.probe(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: eviction addresses always map to the same set as the access
// that caused them, and are line-aligned.
func TestEvictionGeometryQuick(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{SizeBytes: 4096, LineBytes: 128, Ways: 4})
		for _, a := range addrs {
			addr := uint64(a)
			out := c.Access(addr, false)
			if out.Evicted {
				ev := out.Eviction.Addr
				if ev%128 != 0 {
					return false
				}
				if c.index(ev) != c.index(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: stats ledger balances — accesses = hits + sector misses +
// line misses.
func TestStatsLedgerQuick(t *testing.T) {
	f := func(addrs []uint16, sectored bool) bool {
		cfg := Config{SizeBytes: 2048, LineBytes: 256, Ways: 2}
		if sectored {
			cfg.SectorBytes = 64
		}
		c := New(cfg)
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.SectorMiss+s.LineMiss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFullyAssociativeSweep(t *testing.T) {
	// 16 lines fully associative: a working set of 16 lines must all fit.
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Ways: 16})
	for i := 0; i < 16; i++ {
		c.Access(uint64(i)*64, false)
	}
	for i := 0; i < 16; i++ {
		if !c.probe(uint64(i) * 64) {
			t.Fatalf("line %d missing from fully associative cache", i)
		}
	}
	// One more line evicts exactly the LRU (line 0).
	out := c.Access(16*64, false)
	if !out.Evicted || out.Eviction.Addr != 0 {
		t.Fatalf("expected eviction of line 0, got %+v", out)
	}
}

// findWay returns the way holding addr's tag in its set, or nil.
func findWay(c *Cache, addr uint64) *way {
	set := c.sets[c.index(addr)]
	for i := range set {
		if set[i].tag == c.tag(addr) {
			return &set[i]
		}
	}
	return nil
}

// TestInvalidateEmptiesWay checks the validity invariant a way relies
// on: a way is valid iff any sector is present. After an Invalidate —
// a coherence drop on an L1, or a poisoned-line drop on the sectored
// stacked-DRAM L2 — the way holds no sector, probe misses every one,
// occupancy counts the way as empty, and the next allocation into the
// set takes it without evicting anything.
func TestInvalidateEmptiesWay(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"line", l1Cfg()}, {"sectored", dramCfg()}} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg)
			line := uint64(0x40000)
			for off := uint64(0); off < tc.cfg.LineBytes; off += 64 {
				c.Access(line+off, off%128 == 0)
			}
			before := c.occupancy()
			if _, ok := c.Invalidate(line); !ok {
				t.Fatal("line absent before Invalidate")
			}
			w := findWay(c, line)
			if w == nil {
				t.Fatal("way lost its tag")
			}
			if w.present != 0 || w.dirty != 0 {
				t.Fatalf("invalidated way present=%#x dirty=%#x, want 0", w.present, w.dirty)
			}
			for off := uint64(0); off < tc.cfg.LineBytes; off += 64 {
				if c.probe(line + off) {
					t.Fatalf("probe(%#x) true after Invalidate", line+off)
				}
			}
			lines := float64(tc.cfg.SizeBytes / tc.cfg.LineBytes)
			if got, want := c.occupancy(), before-1/lines; got != want {
				t.Fatalf("occupancy %v after Invalidate, want %v", got, want)
			}
			// Fill every other way of the set; the invalidated one is
			// still free, so one more line fits without an eviction.
			stride := tc.cfg.Sets() * tc.cfg.LineBytes
			for k := uint64(1); k < uint64(tc.cfg.Ways); k++ {
				if out := c.Access(line+k*stride, false); out.Evicted {
					t.Fatalf("way %d evicted %+v", k, out.Eviction)
				}
			}
			if out := c.Access(line+uint64(tc.cfg.Ways)*stride, false); out.Evicted {
				t.Fatalf("allocation evicted %+v with an invalid way in the set", out.Eviction)
			}
		})
	}
}

// TestResetMatchesNew checks that Reset returns a used cache to the
// state New leaves, without allocating.
func TestResetMatchesNew(t *testing.T) {
	for _, cfg := range []Config{l1Cfg(), dramCfg()} {
		c := New(cfg)
		for a := uint64(0); a < 1<<16; a++ {
			c.Access(a*4160, a%3 == 0)
		}
		c.Invalidate(0)
		c.Reset()
		if !reflect.DeepEqual(c, New(cfg)) {
			t.Errorf("%+v: Reset cache differs from a new one", cfg)
		}
		if n := testing.AllocsPerRun(10, c.Reset); n != 0 {
			t.Errorf("%+v: Reset allocates %v times", cfg, n)
		}
	}
}

// probe reports whether the addressed sector is present without
// touching LRU state or statistics: the tests' view of the tag array.
func (c *Cache) probe(addr uint64) bool {
	set := c.sets[c.index(addr)]
	tag, sb := c.tag(addr), c.sectorBit(addr)
	for i := range set {
		if set[i].tag == tag && set[i].present&sb != 0 {
			return true
		}
	}
	return false
}

// occupancy returns the fraction of lines currently valid.
func (c *Cache) occupancy() float64 {
	valid, total := 0, 0
	for _, set := range c.sets {
		for i := range set {
			total++
			if set[i].present != 0 {
				valid++
			}
		}
	}
	return float64(valid) / float64(total)
}
