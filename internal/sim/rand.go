package sim

import "math"

// Rand is a small, fast, deterministic random source (splitmix64 core).
// It exists so simulations never depend on math/rand global state or on
// wall-clock seeding; the same seed always yields the same stream.
type Rand struct {
	state uint64
	// spare holds a cached second normal deviate from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRand returns a generator seeded with seed. Distinct seeds give
// well-decorrelated streams (splitmix64 is the generator recommended for
// seeding xoshiro-family PRNGs and is itself equidistributed over 64 bits).
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Jitter returns x multiplied by a normal factor with the given relative
// standard deviation, clamped to stay positive. It models run-to-run noise
// in compute and network times.
func (r *Rand) Jitter(x, relStddev float64) float64 {
	if relStddev <= 0 {
		return x
	}
	f := 1 + relStddev*r.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	return x * f
}
