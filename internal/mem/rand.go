package mem

// Rand is a small deterministic xorshift64* generator used to initialise
// workload data and to drive property tests. It is not cryptographic; it
// exists so runs are reproducible without importing math/rand state into
// every package.
type Rand struct{ s uint64 }

// NewRand returns a generator seeded with seed (zero is remapped so the
// generator never sticks at zero).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Next returns the next 64-bit pseudo-random value.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random value in [0, n). n must be positive; zero
// panics. A power-of-two n masks instead of dividing, with the same result.
func (r *Rand) Intn(n int) int {
	x := r.Next()
	if n > 0 && n&(n-1) == 0 {
		return int(x & uint64(n-1))
	}
	return int(x % uint64(n))
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}
