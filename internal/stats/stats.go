package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a mutable collection of observations (microseconds), backed by
// one of two interchangeable engines behind the same query API:
//
//   - Sketch (the default, NewSample): a fixed-size mergeable log-linear
//     histogram. Memory is bounded regardless of observation count, Min and
//     Max are exact, and every other statistic is within SketchRelError
//     relative of the exact value. This is what lets the high-density
//     scenarios record hundreds of millions of events without retaining
//     them.
//   - Exact (NewExactSample, varbench.Options.ExactStats): every
//     observation retained in a []float64, the pre-sketch behavior. Order
//     statistics sort lazily and cache the sorted state; Add/AddAll
//     invalidate the cache only when they actually break the order, so
//     monotone merge streams never re-sort. Kept as the oracle the sketch
//     is property- and fuzz-tested against, and for workflows that need
//     exact tails.
//
// The two modes produce different cache entries: varbench's options
// fingerprint includes the stats mode, so a sketch-backed run never
// collides with an exact-backed one in the result cache.
type Sample struct {
	vals   []float64
	sorted bool
	sk     *Sketch // nil ⇒ exact backend
}

// NewSample returns an empty sketch-backed sample. The capacity hint is
// accepted for call-site compatibility; the sketch's footprint is bounded
// and grows only with the value range, not the observation count.
func NewSample(capacity int) *Sample {
	_ = capacity
	return &Sample{sk: NewSketch()}
}

// NewExactSample returns an empty sample that retains every observation
// exactly, with the given capacity hint.
func NewExactSample(capacity int) *Sample {
	return &Sample{vals: make([]float64, 0, capacity), sorted: true}
}

// NewSampleLike returns an empty sample with the same backend as proto
// (sketch-backed when proto is nil), so pooling layers preserve the mode
// chosen by Options.ExactStats.
func NewSampleLike(proto *Sample, capacity int) *Sample {
	if proto != nil && proto.Exact() {
		return NewExactSample(capacity)
	}
	return NewSample(capacity)
}

// SampleFromSketch wraps an existing sketch (e.g. decoded from the result
// cache) as a Sample. The sketch is adopted, not copied.
func SampleFromSketch(k *Sketch) *Sample {
	if k == nil {
		k = NewSketch()
	}
	return &Sample{sk: k}
}

// Exact reports whether the sample retains observations exactly.
func (s *Sample) Exact() bool { return s.sk == nil }

// Sketch returns the underlying sketch, or nil for exact samples. The
// codec uses it to serialize the canonical sketch state.
func (s *Sample) Sketch() *Sketch { return s.sk }

// Add appends one observation.
func (s *Sample) Add(v float64) {
	if s.sk != nil {
		s.sk.Add(v)
		return
	}
	if s.sorted && len(s.vals) > 0 && v < s.vals[len(s.vals)-1] {
		s.sorted = false
	}
	s.vals = append(s.vals, v)
}

// AddAll appends many observations.
func (s *Sample) AddAll(vs []float64) {
	if s.sk != nil {
		for _, v := range vs {
			s.sk.Add(v)
		}
		return
	}
	if s.sorted {
		last := math.Inf(-1)
		if len(s.vals) > 0 {
			last = s.vals[len(s.vals)-1]
		}
		for _, v := range vs {
			if v < last {
				s.sorted = false
				break
			}
			last = v
		}
	}
	s.vals = append(s.vals, vs...)
}

// Merge folds the other sample's observations into s. Sketch→sketch merges
// are exact integer-count merges (commutative, associative, bit-identical
// in any order); mixed-backend merges degrade to replaying the other
// side's distinct values.
func (s *Sample) Merge(o *Sample) {
	if o == nil {
		return
	}
	if s.sk != nil && o.sk != nil {
		s.sk.Merge(o.sk)
		return
	}
	if s.sk == nil && o.sk == nil {
		s.AddAll(o.Values())
		return
	}
	o.Each(func(v float64, count uint64) {
		if s.sk != nil {
			s.sk.AddN(v, count)
			return
		}
		for i := uint64(0); i < count; i++ {
			s.Add(v)
		}
	})
}

// Pool returns a new sample holding the observations of n samples, at(0)
// through at(n-1): bit for bit the sample that merging them one at a time
// into NewSampleLike(at(0), 0) gives. A sketch pool sizes its window once,
// to the union of the inputs' windows, so it allocates one window however
// many samples it folds in; an exact pool reserves room for every value
// once.
func Pool(n int, at func(i int) *Sample) *Sample {
	var proto *Sample
	if n > 0 {
		proto = at(0)
	}
	var pool *Sample
	if proto != nil && proto.Exact() {
		total := 0
		for i := 0; i < n; i++ {
			total += at(i).Len()
		}
		pool = NewExactSample(total)
	} else {
		k := NewSketch()
		lo, hi := sketchBuckets, 0
		for i := 0; i < n; i++ {
			l, h := at(i).window()
			lo, hi = min(lo, l), max(hi, h)
		}
		if lo < hi {
			k.base, k.counts = lo, make([]uint64, hi-lo)
		}
		pool = &Sample{sk: k}
	}
	for i := 0; i < n; i++ {
		pool.Merge(at(i))
	}
	return pool
}

// window returns the span [lo, hi) of global sketch buckets that the
// sample's positive observations fall in (lo >= hi when there are none):
// what a sketch's window must cover to absorb the sample without growing.
func (s *Sample) window() (lo, hi int) {
	lo, hi = sketchBuckets, 0
	if s.sk != nil {
		if base, counts, _, _, _ := s.sk.Parts(); len(counts) > 0 {
			lo, hi = base, base+len(counts)
		}
		return lo, hi
	}
	for _, v := range s.vals {
		if v <= 0 || v != v {
			continue // the zero bucket
		}
		if i := sketchIndex(v); i >= 0 {
			lo, hi = min(lo, i), max(hi, i+1)
		}
	}
	return lo, hi
}

// Each visits the sample's distinct values in ascending order with their
// multiplicities — the canonical weighted view both backends share, used
// by the violin KDE. For exact samples every retained observation is
// visited with count 1.
func (s *Sample) Each(fn func(v float64, count uint64)) {
	if s.sk != nil {
		s.sk.Each(fn)
		return
	}
	for _, v := range s.Values() {
		fn(v, 1)
	}
}

// Len returns the number of observations.
func (s *Sample) Len() int {
	if s.sk != nil {
		return int(s.sk.N())
	}
	return len(s.vals)
}

// Values returns the observations in sorted order. For sketch-backed
// samples this materializes each observation at its bucket representative
// (allocating; meant for tests and small summaries, not hot paths). The
// returned slice is owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	if s.sk != nil {
		out := make([]float64, 0, s.sk.N())
		s.sk.Each(func(v float64, count uint64) {
			for i := uint64(0); i < count; i++ {
				out = append(out, v)
			}
		})
		return out
	}
	s.sort()
	return s.vals
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (bucket representatives on the sketch backend,
// within SketchRelError of exact). On an empty sample it returns NaN:
// filtered ablations (e.g. fault-injection runs restricted to a site
// subset) can legitimately produce empty per-site samples, and NaN
// propagates visibly through downstream arithmetic where a panic would
// kill the whole sweep. Out-of-range q still panics — that is always a
// harness bug.
func (s *Sample) Quantile(q float64) float64 {
	if s.sk != nil {
		return s.sk.Quantile(q)
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	if len(s.vals) == 1 {
		return s.vals[0]
	}
	pos := q * float64(len(s.vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.vals[lo]
	}
	frac := pos - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P99 returns the 0.99 quantile, the paper's headline tail metric.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Max returns the worst-case observation (exact on both backends), or NaN
// for an empty sample (consistent with Quantile).
func (s *Sample) Max() float64 {
	if s.sk != nil {
		return s.sk.Max()
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// Min returns the best-case observation (exact on both backends), or NaN
// for an empty sample.
func (s *Sample) Min() float64 {
	if s.sk != nil {
		return s.sk.Min()
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[0]
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if s.sk != nil {
		return s.sk.Mean()
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Stddev returns the population standard deviation, or NaN for an empty
// sample (explicitly, matching the Quantile NaN contract rather than
// relying on NaN propagation through Mean).
func (s *Sample) Stddev() float64 {
	if s.sk != nil {
		return s.sk.Stddev()
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.vals)))
}

// Reset discards all observations but keeps the allocation.
func (s *Sample) Reset() {
	if s.sk != nil {
		s.sk.Reset()
		return
	}
	s.vals = s.vals[:0]
	s.sorted = true
}
