package sim

// RNG is a small deterministic pseudo-random generator (SplitMix64).
// It is seeded explicitly so simulations are reproducible; math/rand's
// global state is deliberately avoided.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Mix64 is the SplitMix64 finalizer: a bijective avalanche mix used to
// derive independent seeds from (master seed, index) pairs. Generators
// across the codebase share this one definition so replay seeds can
// never drift between them.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// golden is SplitMix64's state increment: the generator is a counter, and
// its k-th draw is Mix64 of the state advanced k increments.
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return Mix64(r.state)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n) as int64. It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Duration returns a Duration in [min, max]. It panics if max < min.
func (r *RNG) Duration(min, max Duration) Duration {
	if max < min {
		panic("sim: Duration with max < min")
	}
	if max == min {
		return min
	}
	return min + Duration(r.Int63n(int64(max-min)+1))
}

// DurationAt returns the Duration in [min, max] that the draw k places
// ahead (k = 0 is the next) would return, without advancing: because the
// generator is a counter, any upcoming draw can be read by position. Like
// Duration it panics if max < min and, when max == min, returns min and
// stands for no draw at all.
func (r *RNG) DurationAt(k int, min, max Duration) Duration {
	if max < min {
		panic("sim: DurationAt with max < min")
	}
	if max == min {
		return min
	}
	return min + Duration(Mix64(r.state+uint64(k+1)*golden)%uint64(int64(max-min)+1))
}

// Skip advances the generator past k draws, leaving it where k calls of
// Uint64 would.
func (r *RNG) Skip(k int) { r.state += uint64(k) * golden }

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator from this one, for components that
// need private randomness without perturbing the parent stream.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64()}
}
