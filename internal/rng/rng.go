// Package rng provides a small, fast, deterministic random number
// generator and the distribution draws used throughout the simulator.
//
// The simulator must be exactly reproducible from a seed so that every
// experiment in EXPERIMENTS.md can be regenerated bit-for-bit.  We therefore
// avoid math/rand's global state and implement PCG-XSH-RR 64/32, a small
// generator with excellent statistical properties, plus a 64-bit variant
// (PCG-XSL-RR 128/64 is overkill; we use splitmix-style expansion).
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source.  It implements the subset
// of math/rand's API that the simulator needs, plus the traffic
// distributions from the paper (Poisson interarrivals, geometric worm
// lengths).
type Source struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a Source seeded with seed.  Two sources with the same seed
// produce identical streams.  The stream parameter selects one of 2^63
// independent sequences; use distinct streams for independent stochastic
// processes (e.g. one per traffic generator) so that adding a generator
// does not perturb the draws seen by another.
func New(seed, stream uint64) *Source {
	s := &Source{inc: stream<<1 | 1}
	s.state = 0
	s.Uint32()
	s.state += seed
	s.Uint32()
	return s
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Source) Uint32() uint32 {
	old := s.state
	s.state = old*pcgMult + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	hi := uint64(s.Uint32())
	lo := uint64(s.Uint32())
	return hi<<32 | lo
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random bits / 2^53, the canonical construction.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded draw.
	bound := uint32(n)
	for {
		v := s.Uint32()
		m := uint64(v) * uint64(bound)
		l := uint32(m)
		if l >= bound || l >= -bound%bound {
			return int(m >> 32)
		}
	}
}

// Int63n returns a uniform int64 in [0, n).  It panics if n <= 0.  Use
// this for bounds that exceed 32 bits (e.g. reservoir-sampling draws over
// an unbounded stream count, which would overflow an int conversion on
// 32-bit platforms).
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded draw, 64-bit.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int64(hi)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed float64 with the given mean.
// Exponential interarrival times yield the Poisson worm-generation process
// used for all simulation experiments in the paper (Section 7.1).
func (s *Source) Exp(mean float64) float64 {
	// Inverse transform; guard against log(0).
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Geometric returns a geometrically distributed integer >= 1 with the given
// mean.  The paper draws worm lengths from a geometric distribution with a
// mean of 400 bytes (Section 7.1).  The support starts at 1: a zero-length
// worm carries no payload and is meaningless.
func (s *Source) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// For support {1, 2, ...} with success probability p, the mean is 1/p.
	p := 1 / mean
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	k := int(math.Floor(math.Log(u)/math.Log(1-p))) + 1
	if k < 1 {
		k = 1
	}
	return k
}
