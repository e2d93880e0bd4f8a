package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64). Every stochastic decision in the simulator draws from an
// RNG seeded by the scenario so that experiments are exactly reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant so the zero value is still usable.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value in the sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value uniformly distributed in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Skip advances the stream past n draws in O(1). The splitmix64 state moves
// by a fixed increment per draw, so skipping is a single multiply-add; after
// Skip(n) the generator produces exactly the values it would have produced
// after n discarded Uint64 calls. Fast-forwarding actors use this to account
// for the draws their skipped work would have consumed, keeping sampled and
// detailed executions on the same deterministic stream.
func (r *RNG) Skip(n uint64) {
	r.state += n * 0x9e3779b97f4a7c15
}

// Fork derives an independent child generator. Children seeded from distinct
// parents (or successive Fork calls) produce uncorrelated streams.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() | 1)
}

// Zipf draws from a bounded Zipf-like distribution over [0, n) with skew s
// using inverse-CDF over a precomputed table-free approximation. For the
// workload generators a coarse approximation is sufficient: rank is drawn as
// floor(n * u^(1/(1-s))) for s in (0,1), clamped to the range.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	if s >= 0.99 {
		s = 0.99
	}
	u := r.Float64()
	// Inverse of the continuous approximation of the Zipf CDF.
	x := int(float64(n) * math.Pow(u, 1/(1-s)))
	if x >= n {
		x = n - 1
	}
	return x
}
