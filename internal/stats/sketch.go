package stats

import (
	"fmt"
	"math"
)

// Sketch is a fixed-size, deterministic, mergeable quantile sketch over
// non-negative float64 observations (microseconds): a log-linear histogram
// in the HDR/DDSketch family. Each positive value is mapped to a bucket by
// pure bit manipulation — math.Frexp splits v into a fraction f ∈ [0.5, 1)
// and a binary exponent e, the fraction picks one of sketchSub equal-width
// sub-buckets within the octave [2^(e-1), 2^e) — so indexing involves no
// transcendental functions and is exactly reproducible across platforms.
//
// Guarantees, relied on by the result-cache codec and the distributed
// sweep's merge step:
//
//   - Bounded size. The bucket space is globally bounded (sketchBuckets
//     indices covering [2^-65, 2^63) µs); the dense count window only spans
//     the octaves actually observed, so a sketch never exceeds ~64 KiB no
//     matter how many observations it absorbs.
//   - Bounded relative error. Every bucket's representative (its midpoint,
//     an exactly representable dyadic rational) is within SketchRelError
//     relative of any value that maps to the bucket, so interpolated
//     quantiles are within SketchRelError relative of the exact-sample
//     oracle's (see TestSketchQuantileErrorBound).
//   - Bit-identical merges in any order. Merge adds integer counts and
//     takes float min/max — exactly commutative and associative — so
//     pooling sketches in job-key order, completion order, or any shard
//     grouping yields byte-identical canonical encodings.
//
// Values that are NaN or negative are clamped to 0 (latencies are never
// either; fuzzed inputs can be); zeros and positive underflow land in a
// dedicated zero bucket with representative 0. The exact minimum and
// maximum are tracked separately, so Min/Max are exact and quantiles clamp
// into [Min, Max].
type Sketch struct {
	base   int      // global bucket index of counts[0]; meaningless when counts is empty
	counts []uint64 // dense window over the observed octaves
	zero   uint64   // observations clamped to zero (v <= 0, NaN, or underflow)
	n      uint64   // total observations (zero + sum of counts)
	min    float64  // exact minimum (+Inf when empty)
	max    float64  // exact maximum (-Inf when empty)
}

const (
	// sketchSub is the number of linear sub-buckets per octave (the "m" of
	// the error bound 1/(2m)).
	sketchSub = 64
	// sketchEMin/sketchEMax bound the frexp exponent range: bucketed values
	// span [2^(sketchEMin-1), 2^sketchEMax) = [2^-65, 2^63) µs. Values below
	// underflow into the zero bucket; values at or above clamp into the top
	// bucket (Max stays exact either way).
	sketchEMin = -64
	sketchEMax = 63
	// sketchBuckets bounds the global index space (8192 ⇒ ≤ 64 KiB of
	// counts even if every octave is populated).
	sketchBuckets = (sketchEMax - sketchEMin + 1) * sketchSub
)

// SketchRelError is the sketch's worst-case relative error: every reported
// quantile q satisfies |q_sketch - q_exact| <= SketchRelError * q_exact for
// samples within the bucketed range (see the package documentation for the
// argument).
const SketchRelError = 1.0 / (2 * sketchSub)

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{min: math.Inf(1), max: math.Inf(-1)}
}

// sketchIndex maps v > 0 to its global bucket index, or -1 for underflow
// (the zero bucket). The mapping is exact float arithmetic: f-0.5 is exact
// (both operands share a binade), scaling by 2*sketchSub is a power-of-two
// multiply, and truncation to int is deterministic.
func sketchIndex(v float64) int {
	f, e := math.Frexp(v) // v = f * 2^e, f in [0.5, 1)
	if e < sketchEMin {
		return -1
	}
	if e > sketchEMax {
		return sketchBuckets - 1
	}
	sub := int((f - 0.5) * (2 * sketchSub))
	if sub >= sketchSub { // unreachable for f < 1; guards bit-pattern edge cases
		sub = sketchSub - 1
	}
	return (e-sketchEMin)*sketchSub + sub
}

// sketchRep returns the bucket's representative: its midpoint
// (2*(sketchSub+sub)+1) / (4*sketchSub) * 2^e, an exactly representable
// dyadic rational, within half a bucket width of every value in the bucket.
func sketchRep(idx int) float64 {
	e := idx/sketchSub + sketchEMin
	sub := idx % sketchSub
	return math.Ldexp(float64(2*(sketchSub+sub)+1)/float64(4*sketchSub), e)
}

// Add records one observation.
func (k *Sketch) Add(v float64) { k.AddN(v, 1) }

// AddN records c identical observations.
func (k *Sketch) AddN(v float64, c uint64) {
	if c == 0 {
		return
	}
	if v != v || v < 0 { // NaN or negative: clamp, like LatHist
		v = 0
	}
	if v < k.min {
		k.min = v
	}
	if v > k.max {
		k.max = v
	}
	k.n += c
	if v <= 0 {
		k.zero += c
		return
	}
	idx := sketchIndex(v)
	if idx < 0 {
		k.zero += c
		return
	}
	k.bucket(idx)
	k.counts[idx-k.base] += c
}

// bucket grows the dense window to cover global index idx. Growth doubles
// the uncovered side so long monotone streams amortize to O(1) per Add.
func (k *Sketch) bucket(idx int) {
	if len(k.counts) == 0 {
		k.base = idx
		if cap(k.counts) > 0 {
			k.counts = k.counts[:1]
			k.counts[0] = 0
		} else {
			k.counts = make([]uint64, 1, 8)
		}
		return
	}
	if idx >= k.base && idx < k.base+len(k.counts) {
		return
	}
	lo, hi := k.base, k.base+len(k.counts) // current coverage [lo, hi)
	nlo, nhi := lo, hi
	if idx < lo {
		nlo = idx - (lo - idx) // double the extension downward
		if nlo < 0 {
			nlo = 0
		}
		if nlo > idx {
			nlo = idx
		}
	}
	if idx >= hi {
		nhi = idx + 1 + (idx + 1 - hi) // double the extension upward
		if nhi > sketchBuckets {
			nhi = sketchBuckets
		}
	}
	grown := make([]uint64, nhi-nlo)
	copy(grown[lo-nlo:], k.counts)
	k.base, k.counts = nlo, grown
}

// Merge folds other into k. Counts add and min/max combine, so merging is
// exactly commutative and associative: any merge order over any grouping
// produces an identical sketch, bit for bit.
func (k *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
	if other.min < k.min {
		k.min = other.min
	}
	if other.max > k.max {
		k.max = other.max
	}
	k.n += other.n
	k.zero += other.zero
	for i, c := range other.counts {
		if c == 0 {
			continue
		}
		idx := other.base + i
		k.bucket(idx)
		k.counts[idx-k.base] += c
	}
}

// N returns the number of recorded observations.
func (k *Sketch) N() uint64 { return k.n }

// Min returns the exact minimum observation (NaN when empty).
func (k *Sketch) Min() float64 {
	if k.n == 0 {
		return math.NaN()
	}
	return k.min
}

// Max returns the exact maximum observation (NaN when empty).
func (k *Sketch) Max() float64 {
	if k.n == 0 {
		return math.NaN()
	}
	return k.max
}

// Quantile returns the q-quantile under the same convention as the exact
// Sample: linear interpolation between the order statistics at ranks
// floor(q*(n-1)) and ceil(q*(n-1)), with each order statistic approximated
// by its bucket representative — except ranks 0 and n-1, which are the
// exact tracked Min/Max — and the result clamped into [Min, Max].
// Empty sketches return NaN; out-of-range q panics (always a harness bug).
func (k *Sketch) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if k.n == 0 {
		return math.NaN()
	}
	if k.n == 1 || k.min == k.max {
		return k.min
	}
	pos := q * float64(k.n-1)
	lo := uint64(math.Floor(pos))
	hi := uint64(math.Ceil(pos))
	vlo, vhi := k.rankValues(lo, hi)
	// The extreme order statistics are the tracked extremes themselves, so
	// report them exactly (this also covers values clamped into the top
	// bucket from beyond the bucketed range).
	if lo == 0 {
		vlo = k.min
	} else if lo == k.n-1 {
		vlo = k.max
	}
	if hi == k.n-1 {
		vhi = k.max
	}
	v := vlo
	if hi != lo {
		frac := pos - float64(lo)
		v = vlo*(1-frac) + vhi*frac
	}
	// Clamp into the exact observed range: representatives near the ends
	// may overshoot the true extremes by up to half a bucket.
	if v < k.min {
		v = k.min
	}
	if v > k.max {
		v = k.max
	}
	return v
}

// rankValues returns the representative values at 0-based ranks lo <= hi in
// one cumulative walk.
func (k *Sketch) rankValues(lo, hi uint64) (vlo, vhi float64) {
	cum := k.zero
	vlo, vhi = math.NaN(), math.NaN()
	if lo < cum {
		vlo = 0
	}
	if hi < cum {
		vhi = 0
		return vlo, vhi
	}
	for i, c := range k.counts {
		cum += c
		if vlo != vlo && lo < cum {
			vlo = sketchRep(k.base + i)
		}
		if hi < cum {
			vhi = sketchRep(k.base + i)
			return vlo, vhi
		}
	}
	// Ranks beyond the recorded total (callers never pass them, but keep
	// the walk total): fall back to the exact maximum.
	if vlo != vlo {
		vlo = k.max
	}
	return vlo, k.max
}

// Mean returns the mean of the bucket representatives weighted by count —
// within SketchRelError relative of the exact mean, computed in fixed
// bucket order at query time so it is independent of insertion and merge
// order. NaN when empty.
func (k *Sketch) Mean() float64 {
	if k.n == 0 {
		return math.NaN()
	}
	var sum float64 // zero bucket contributes 0
	for i, c := range k.counts {
		if c != 0 {
			sum += float64(c) * sketchRep(k.base+i)
		}
	}
	return sum / float64(k.n)
}

// Stddev returns the population standard deviation over the weighted
// representatives (NaN when empty).
func (k *Sketch) Stddev() float64 {
	if k.n == 0 {
		return math.NaN()
	}
	m := k.Mean()
	ss := float64(k.zero) * m * m
	for i, c := range k.counts {
		if c != 0 {
			d := sketchRep(k.base+i) - m
			ss += float64(c) * d * d
		}
	}
	return math.Sqrt(ss / float64(k.n))
}

// Each visits the sketch's distinct values in ascending order with their
// counts: the zero bucket first (value 0), then each populated bucket's
// representative. The visit order is canonical, so any accumulation over
// Each is insertion- and merge-order independent.
func (k *Sketch) Each(fn func(v float64, count uint64)) {
	if k.zero > 0 {
		fn(0, k.zero)
	}
	for i, c := range k.counts {
		if c != 0 {
			fn(sketchRep(k.base+i), c)
		}
	}
}

// Reset discards all observations, keeping the window allocation.
func (k *Sketch) Reset() {
	k.counts = k.counts[:0]
	k.base = 0
	k.zero, k.n = 0, 0
	k.min, k.max = math.Inf(1), math.Inf(-1)
}

// Parts returns the sketch's canonical state for serialization: the dense
// count window trimmed to its populated extent (base is the global index of
// counts[0]; nil with base 0 when no positive bucket is populated), the
// zero-bucket count, and the exact min/max (+Inf/-Inf when empty). The
// returned slice aliases the sketch and must not be modified.
func (k *Sketch) Parts() (base int, counts []uint64, zero uint64, min, max float64) {
	lo, hi := 0, len(k.counts)
	for lo < hi && k.counts[lo] == 0 {
		lo++
	}
	for hi > lo && k.counts[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		return 0, nil, k.zero, k.min, k.max
	}
	return k.base + lo, k.counts[lo:hi], k.zero, k.min, k.max
}

// SketchFromParts reassembles a sketch from its canonical parts (the
// codec's constructor), validating the structural invariants Parts
// guarantees: the window lies within the global bucket space, is trimmed
// (nonzero at both ends), the total count does not overflow, and an empty
// sketch carries the empty extremes (+Inf, -Inf). The counts slice is
// adopted, not copied: the caller must not use it afterwards.
func SketchFromParts(base int, counts []uint64, zero uint64, min, max float64) (*Sketch, error) {
	if len(counts) == 0 {
		if base != 0 {
			return nil, fmt.Errorf("stats: sketch with empty window has base %d", base)
		}
	} else {
		if base < 0 || base+len(counts) > sketchBuckets {
			return nil, fmt.Errorf("stats: sketch window [%d,%d) outside bucket space", base, base+len(counts))
		}
		if counts[0] == 0 || counts[len(counts)-1] == 0 {
			return nil, fmt.Errorf("stats: sketch window not trimmed")
		}
	}
	n := zero
	for _, c := range counts {
		if n+c < n {
			return nil, fmt.Errorf("stats: sketch count overflow")
		}
		n += c
	}
	if n == 0 && (min != math.Inf(1) || max != math.Inf(-1)) {
		return nil, fmt.Errorf("stats: empty sketch with extremes %v, %v", min, max)
	}
	k := &Sketch{zero: zero, n: n, min: min, max: max}
	if len(counts) > 0 {
		k.base, k.counts = base, counts
	}
	return k, nil
}
