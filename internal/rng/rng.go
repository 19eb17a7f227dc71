// Package rng provides a deterministic, splittable pseudo-random number
// generator and the latency distributions used throughout the simulator.
//
// Every stochastic component of the simulation draws from an rng.Source that
// is derived, via Split, from a single experiment seed. Two runs with the
// same seed therefore produce bit-identical results, which is what lets the
// test suite assert exact latency distributions and what removes host-side
// noise (GC pauses, scheduler jitter) from the measurements — the property
// the paper's methodology works hard to achieve on real hardware.
package rng

import "math"

// Source is a small, fast PRNG (xoshiro256** seeded via splitmix64).
// The zero value is not usable; construct with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams for practical purposes (seeding runs through splitmix64).
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source as if it had been created by New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 output of any
	// seed is never all-zero across four words, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split derives an independent child stream. The child is keyed by the
// parent's next output mixed with tag, so the same parent seed and tag
// always yield the same child regardless of other consumers — provided
// Split calls happen in a deterministic order, which the simulator's
// construction phase guarantees.
func (r *Source) Split(tag uint64) *Source {
	return New(r.Uint64() ^ (tag * 0xd1342543de82ef95))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Source) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box-Muller, one branch).
func (r *Source) Normal(mean, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + sigma*z
}

// LogNormal returns exp(Normal(mu, sigma)). mu and sigma are the
// parameters of the underlying normal, not of the result.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto(alpha)-distributed value with the given minimum
// (scale). Small alpha values (≈1–1.5) produce the heavy tails used to model
// unbounded software interference.
func (r *Source) Pareto(min, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return min / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto(alpha) draw truncated to [min, max] by
// rejection against the cap (the draw is clamped, preserving the mass in
// the tail rather than resampling it away).
func (r *Source) BoundedPareto(min, max, alpha float64) float64 {
	v := r.Pareto(min, alpha)
	if v > max {
		return max
	}
	return v
}

// WeightedPick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. Non-positive weights are treated as zero; if
// all weights are zero the choice is uniform.
func WeightedPick(r *Source, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
