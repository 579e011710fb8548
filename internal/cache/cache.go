// Package cache implements the set-associative, write-back caches used
// by the memory hierarchy simulator: conventional line-grain caches for
// the L1s and SRAM L2, and sectored caches for the stacked DRAM L2
// (512 B allocation pages with independently valid 64 B sectors, per
// Table 3 of the paper).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total data capacity; must be a power of two.
	SizeBytes uint64
	// LineBytes is the allocation unit (a "page" for sectored caches);
	// must be a power of two.
	LineBytes uint64
	// Ways is the set associativity; must divide the line count.
	Ways int
	// Latency is the hit latency in cycles.
	Latency int64
	// SectorBytes, when non-zero, subdivides each line into
	// independently valid sectors (fetch-on-miss at sector grain).
	// Must be a power of two dividing LineBytes. Zero means the line is
	// a single sector.
	SectorBytes uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes == 0 {
		return fmt.Errorf("cache: SizeBytes must be positive")
	}
	if c.LineBytes == 0 || bits.OnesCount64(c.LineBytes) != 1 {
		return fmt.Errorf("cache: LineBytes must be a positive power of two, got %d", c.LineBytes)
	}
	if c.LineBytes > c.SizeBytes || c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: SizeBytes %d is not a multiple of LineBytes %d", c.SizeBytes, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	}
	lines := c.SizeBytes / c.LineBytes
	if uint64(c.Ways) > lines {
		return fmt.Errorf("cache: Ways %d exceeds line count %d", c.Ways, lines)
	}
	sets := lines / uint64(c.Ways)
	if sets*uint64(c.Ways) != lines || bits.OnesCount64(sets) != 1 {
		return fmt.Errorf("cache: %d lines / %d ways leaves a non-power-of-two set count", lines, c.Ways)
	}
	if c.SectorBytes != 0 {
		if bits.OnesCount64(c.SectorBytes) != 1 {
			return fmt.Errorf("cache: SectorBytes must be a power of two, got %d", c.SectorBytes)
		}
		if c.SectorBytes > c.LineBytes {
			return fmt.Errorf("cache: SectorBytes %d exceeds LineBytes %d", c.SectorBytes, c.LineBytes)
		}
		if c.LineBytes/c.SectorBytes > 64 {
			return fmt.Errorf("cache: more than 64 sectors per line (%d)", c.LineBytes/c.SectorBytes)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("cache: negative latency %d", c.Latency)
	}
	return nil
}

// Sectors returns the number of sectors per line (1 for non-sectored).
func (c Config) Sectors() int {
	if c.SectorBytes == 0 {
		return 1
	}
	return int(c.LineBytes / c.SectorBytes)
}

// Sets returns the number of sets.
func (c Config) Sets() uint64 { return c.SizeBytes / c.LineBytes / uint64(c.Ways) }

// way is one line of tag state. A way is valid iff present != 0: an
// allocation sets the accessed sector's bit, hits only add bits, and
// Invalidate zeroes them all.
type way struct {
	tag     uint64
	present uint64 // per-sector valid bitmask
	dirty   uint64 // per-sector dirty bitmask
	lru     uint64 // last-touch sequence number
}

// Eviction describes a line displaced by an allocation.
type Eviction struct {
	// Addr is the base address of the evicted line.
	Addr uint64
	// Dirty reports whether any sector must be written back.
	Dirty bool
	// DirtySectors is the per-sector dirty bitmask.
	DirtySectors uint64
}

// Outcome reports the result of one access. It is a plain value —
// nothing in it escapes to the heap — so the replay loop's per-access
// cost stays allocation-free.
type Outcome struct {
	// Hit is true when the addressed sector was present.
	Hit bool
	// LineHit is true when the line's tag matched, even if the sector
	// itself was absent (a sector miss on a sectored cache).
	LineHit bool
	// Evicted is true when the access displaced a valid line, described
	// by Eviction.
	Evicted bool
	// Eviction is meaningful only when Evicted is true.
	Eviction Eviction
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	SectorMiss  uint64 // line present, sector absent
	LineMiss    uint64 // tag miss
	Evictions   uint64
	Writebacks  uint64 // dirty evictions
	Invalidates uint64
}

// Cache is a set-associative write-back, write-allocate cache with
// true-LRU replacement. It tracks presence and state only — it holds
// no data payload, as is standard for performance models.
type Cache struct {
	cfg        Config
	sets       [][]way
	offsetBits uint
	indexMask  uint64
	sectorBits uint
	seq        uint64
	stats      Stats
}

// New builds a cache from cfg, panicking on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	sets := make([][]way, nsets)
	backing := make([]way, nsets*uint64(cfg.Ways))
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways:cfg.Ways], backing[cfg.Ways:]
	}
	var sectorBits uint
	if cfg.SectorBytes != 0 {
		sectorBits = uint(bits.TrailingZeros64(cfg.SectorBytes))
	} else {
		sectorBits = uint(bits.TrailingZeros64(cfg.LineBytes))
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		offsetBits: uint(bits.TrailingZeros64(cfg.LineBytes)),
		indexMask:  nsets - 1,
		sectorBits: sectorBits,
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) uint64 {
	return (addr >> c.offsetBits) & c.indexMask
}

func (c *Cache) tag(addr uint64) uint64 {
	return addr >> c.offsetBits >> uint(bits.Len64(c.indexMask))
}

func (c *Cache) sectorBit(addr uint64) uint64 {
	if c.cfg.SectorBytes == 0 {
		return 1
	}
	idx := (addr >> c.sectorBits) & uint64(c.cfg.Sectors()-1)
	return 1 << idx
}

// Access performs a read (write=false) or write (write=true) of addr,
// allocating on miss. The returned Outcome reports hit/miss status and
// any eviction the allocation caused.
func (c *Cache) Access(addr uint64, write bool) Outcome {
	c.stats.Accesses++
	set := c.sets[c.index(addr)]
	tag := c.tag(addr)
	sb := c.sectorBit(addr)
	c.seq++

	for i := range set {
		w := &set[i]
		if w.present == 0 || w.tag != tag {
			continue
		}
		w.lru = c.seq
		if w.present&sb != 0 {
			c.stats.Hits++
			if write {
				w.dirty |= sb
			}
			return Outcome{Hit: true, LineHit: true}
		}
		// Sector miss: fetch the sector into the present line.
		c.stats.SectorMiss++
		w.present |= sb
		if write {
			w.dirty |= sb
		}
		return Outcome{Hit: false, LineHit: true}
	}

	// Line miss: allocate, choosing the LRU way.
	c.stats.LineMiss++
	victim := &set[0]
	for i := 1; i < len(set); i++ {
		w := &set[i]
		if w.present == 0 {
			victim = w
			break
		}
		if victim.present == 0 {
			break
		}
		if w.lru < victim.lru {
			victim = w
		}
	}

	out := Outcome{Hit: false, LineHit: false}
	if victim.present != 0 {
		c.stats.Evictions++
		evAddr := c.reconstruct(victim.tag, c.index(addr))
		out.Evicted = true
		if victim.dirty != 0 {
			c.stats.Writebacks++
			out.Eviction = Eviction{Addr: evAddr, Dirty: true, DirtySectors: victim.dirty}
		} else {
			out.Eviction = Eviction{Addr: evAddr}
		}
	}

	victim.tag = tag
	victim.present = sb
	victim.dirty = 0
	if write {
		victim.dirty = sb
	}
	victim.lru = c.seq
	return out
}

// reconstruct rebuilds a line base address from tag and set index.
func (c *Cache) reconstruct(tag, index uint64) uint64 {
	return (tag<<uint(bits.Len64(c.indexMask)) | index) << c.offsetBits
}

// Invalidate drops the line containing addr if present, returning the
// eviction record by value (ok=false when the line was absent). Used
// for coherence invalidations from the other core.
func (c *Cache) Invalidate(addr uint64) (ev Eviction, ok bool) {
	set := c.sets[c.index(addr)]
	tag := c.tag(addr)
	for i := range set {
		w := &set[i]
		if w.present == 0 || w.tag != tag {
			continue
		}
		c.stats.Invalidates++
		ev = Eviction{Addr: c.reconstruct(w.tag, c.index(addr))}
		if w.dirty != 0 {
			ev.Dirty = true
			ev.DirtySectors = w.dirty
		}
		w.present = 0
		w.dirty = 0
		return ev, true
	}
	return Eviction{}, false
}

// Stats returns a copy of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset returns the cache to the state New left it in: every way
// invalid, the LRU sequence at zero and the statistics cleared. It
// keeps the tag arrays and allocates nothing.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.seq = 0
	c.stats = Stats{}
}
