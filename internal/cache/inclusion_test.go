package cache

import (
	"testing"

	"diestack/internal/stats"
)

// TestMissesMonotoneInCapacity checks the LRU inclusion property on
// fully-associative caches of 1 to 64 lines: whatever hits in a cache
// of c lines also hits in one of c+1 lines (the c most recently used
// lines are among the c+1 most recent), so misses never grow with
// capacity. The streams mix a hot set, a warm set, a cold region and
// sequential runs, over a footprint wider than the largest cache.
func TestMissesMonotoneInCapacity(t *testing.T) {
	const (
		lineBytes = 64
		maxLines  = 64
		refs      = 5_000
	)
	for seed := uint64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		caches := make([]*Cache, maxLines+1)
		for lines := 1; lines <= maxLines; lines++ {
			caches[lines] = New(Config{SizeBytes: uint64(lines) * lineBytes, LineBytes: lineBytes, Ways: lines, Latency: 1})
		}
		seq := uint64(0)
		for i := 0; i < refs; i++ {
			var line uint64
			switch r := rng.Float64(); {
			case r < 0.4:
				line = uint64(rng.Intn(8)) // hot
			case r < 0.7:
				line = 8 + uint64(rng.Intn(48)) // warm
			case r < 0.85:
				line = 56 + uint64(rng.Intn(200)) // cold
			default:
				seq = (seq + 1) % 100
				line = 300 + seq // a sequential sweep
			}
			addr := line*lineBytes + uint64(rng.Intn(lineBytes))
			write := rng.Bool(0.3)
			prevHit := false
			for lines := 1; lines <= maxLines; lines++ {
				hit := caches[lines].Access(addr, write).Hit
				if prevHit && !hit {
					t.Fatalf("seed %d ref %d (line %d): hit with %d lines, miss with %d",
						seed, i, line, lines-1, lines)
				}
				prevHit = hit
			}
		}
		for lines := 2; lines <= maxLines; lines++ {
			small, big := caches[lines-1].Stats(), caches[lines].Stats()
			if big.Accesses-big.Hits > small.Accesses-small.Hits {
				t.Errorf("seed %d: %d lines miss %d times, %d lines only %d",
					seed, lines, big.Accesses-big.Hits, lines-1, small.Accesses-small.Hits)
			}
		}
	}
}
