// Package rng supplies the deterministic pseudo-random number generation
// used by every stochastic component in the library: measurement noise,
// process variation, trap time constants and thermal-chamber fluctuation.
//
// The library never touches math/rand's global state; every consumer owns
// an *rng.Source seeded explicitly, so full experiments replay bit-for-bit
// from a single seed — essential when "measurements" come from simulation
// and figures must regenerate identically.
//
// The core generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): a
// 64-bit state, one add and three xor-shift-multiply steps per output.
// It passes BigCrush, is trivially seedable from any 64-bit value, and
// supports cheap stream splitting for independent sub-generators.
package rng

import "math"

// Source is a deterministic SplitMix64 generator. The zero value is a
// valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source { return &Source{state: seed} }

// State returns the generator's state; SetState(State()) resumes the
// stream exactly where it stands.
func (s *Source) State() uint64 { return s.state }

// SetState moves the generator to a state State returned.
func (s *Source) SetState(state uint64) { s.state = state }

// Split derives an independent child generator from the current state.
// The parent advances, so successive Split calls give distinct children.
// Use it to hand each chip / trap ensemble / sensor its own stream so
// adding a consumer doesn't perturb the draws seen by the others.
func (s *Source) Split() *Source {
	// The golden-gamma increment of SplitMix64 guarantees child streams
	// with full period; mixing the raw output again decorrelates them.
	return &Source{state: s.Uint64() * 0xbf58476d1ce4e5b9}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping is fine here: bias is below
	// 2^-32 for any n this library uses (grid sizes, trap counts).
	return int(s.Uint64() % uint64(n))
}

// Normal returns a standard normal variate via the Box–Muller transform.
func (s *Source) Normal() float64 {
	// Draw u1 in (0,1] to keep the log finite.
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormalWith returns a normal variate with the given mean and standard
// deviation. A non-positive sigma returns the mean exactly, which lets
// callers disable a noise source by configuration without branching.
func (s *Source) NormalWith(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.Normal()
}

// LogUniform returns a variate whose logarithm is uniform on
// [log lo, log hi]. BTI trap capture/emission time constants span many
// decades and are conventionally drawn log-uniformly (Velamala DAC'12).
// It panics unless 0 < lo <= hi.
func (s *Source) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform requires 0 < lo <= hi")
	}
	return math.Exp(s.Uniform(math.Log(lo), math.Log(hi)))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) using
// Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
