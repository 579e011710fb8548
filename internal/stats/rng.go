// Package stats provides deterministic pseudo-random number generation
// and the fixed-bucket histogram used throughout the die-stacking
// simulators.
//
// Simulation reproducibility is a hard requirement: every workload
// generator and every synthetic instruction stream must produce the
// same sequence for the same seed on every platform. The package
// therefore carries its own splitmix64/xoshiro256** implementation
// instead of depending on math/rand's unspecified evolution.
package stats

// splitmix64 advances a 64-bit state and returns the next output.
// It is used to seed xoshiro and as a cheap standalone generator.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, as
// recommended by the xoshiro authors. Distinct seeds give statistically
// independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	return aHi*bHi + w2 + (w1 >> 32), a * b
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric samples a geometric distribution with success probability p
// (mean 1/p), returning a value >= 1. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("stats: Geometric with non-positive p")
	}
	n := 1
	for !r.Bool(p) {
		n++
		// Cap pathological tails so a bad p cannot hang a simulation.
		if n >= 1<<20 {
			return n
		}
	}
	return n
}
