package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// sketchEqual reports bit-identity of two sketches' canonical state: the
// trimmed count window, zero bucket, total, and the float bit patterns of
// the exact extremes.
func sketchEqual(a, b *Sketch) bool {
	ab, ac, az, amin, amax := a.Parts()
	bb, bc, bz, bmin, bmax := b.Parts()
	if ab != bb || az != bz || a.N() != b.N() || len(ac) != len(bc) {
		return false
	}
	if math.Float64bits(amin) != math.Float64bits(bmin) ||
		math.Float64bits(amax) != math.Float64bits(bmax) {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

// cloneSketch round-trips through Parts/SketchFromParts — both a deep copy
// and a serialization-path exercise. SketchFromParts adopts its window, so
// the clone copies the window Parts aliases before handing it over.
func cloneSketch(t testing.TB, k *Sketch) *Sketch {
	t.Helper()
	base, counts, zero, min, max := k.Parts()
	c, err := SketchFromParts(base, append([]uint64(nil), counts...), zero, min, max)
	if err != nil {
		t.Fatalf("SketchFromParts on Parts output: %v", err)
	}
	return c
}

// The headline bound: every sketch quantile is within SketchRelError
// relative of the exact oracle's. Bucketing is monotone and count-
// preserving, so the sketch's k-th order statistic is exactly the bucket
// representative of the exact k-th order statistic, and interpolation is a
// convex combination of two such representatives.
func TestSketchQuantileErrorBound(t *testing.T) {
	qs := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	if err := quick.Check(func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		sk := NewSketch()
		ex := NewExactSample(len(raw))
		for _, u := range raw {
			v := float64(u) / 64 // 0 .. ~67M µs, spanning many octaves + zeros
			sk.Add(v)
			ex.Add(v)
		}
		for _, q := range qs {
			got, want := sk.Quantile(q), ex.Quantile(q)
			if math.Abs(got-want) > SketchRelError*want+1e-12 {
				t.Logf("q=%v: sketch %v vs exact %v", q, got, want)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Mean and Stddev are computed over the representatives, so Mean inherits
// the same relative bound; Stddev errs by at most 2ε in mean-shift plus ε
// in spread — assert a conservative 3ε·mean envelope.
func TestSketchMomentsErrorBound(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sk := NewSketch()
		ex := NewExactSample(len(raw))
		for _, u := range raw {
			v := float64(u) / 4
			sk.Add(v)
			ex.Add(v)
		}
		em := ex.Mean()
		if math.Abs(sk.Mean()-em) > SketchRelError*em+1e-12 {
			t.Logf("mean: sketch %v vs exact %v", sk.Mean(), em)
			return false
		}
		if math.Abs(sk.Stddev()-ex.Stddev()) > 3*SketchRelError*em+1e-12 {
			t.Logf("stddev: sketch %v vs exact %v (mean %v)", sk.Stddev(), ex.Stddev(), em)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Merge must be exactly commutative and associative — the bit-identity
// property the distributed sweep's arbitrary merge orders rely on — and a
// merged sketch must equal the sketch of the concatenated stream.
func TestSketchMergeBitIdentity(t *testing.T) {
	if err := quick.Check(func(raw []uint16, cut1, cut2 uint8) bool {
		i := int(cut1) * len(raw) / 256
		j := i + int(cut2)*(len(raw)-i)/256
		parts := [][]uint16{raw[:i], raw[i:j], raw[j:]}
		sk := make([]*Sketch, 3)
		all := NewSketch()
		for p, vs := range parts {
			sk[p] = NewSketch()
			for _, u := range vs {
				v := float64(u) / 8
				sk[p].Add(v)
				all.Add(v)
			}
		}
		ab := cloneSketch(t, sk[0])
		ab.Merge(sk[1])
		ba := cloneSketch(t, sk[1])
		ba.Merge(sk[0])
		if !sketchEqual(ab, ba) {
			t.Log("merge not commutative")
			return false
		}
		abc := cloneSketch(t, ab) // (a⊕b)⊕c
		abc.Merge(sk[2])
		bc := cloneSketch(t, sk[1])
		bc.Merge(sk[2])
		aBC := cloneSketch(t, sk[0]) // a⊕(b⊕c)
		aBC.Merge(bc)
		if !sketchEqual(abc, aBC) {
			t.Log("merge not associative")
			return false
		}
		return sketchEqual(abc, all)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchPartsRoundTrip(t *testing.T) {
	k := NewSketch()
	for _, v := range []float64{0, 0.25, 3, 3, 700, 1e6, 1e-300, 42.42} {
		k.Add(v)
	}
	c := cloneSketch(t, k)
	if !sketchEqual(k, c) {
		t.Fatal("round-tripped sketch differs")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if k.Quantile(q) != c.Quantile(q) {
			t.Fatalf("q=%v differs after round trip", q)
		}
	}
	// Empty sketch round-trips to canonical empty state.
	e := cloneSketch(t, NewSketch())
	if e.N() != 0 || !math.IsNaN(e.Min()) || !math.IsNaN(e.Max()) {
		t.Fatal("empty round trip not canonical")
	}
}

func TestSketchFromPartsRejects(t *testing.T) {
	cases := []struct {
		name   string
		base   int
		counts []uint64
		zero   uint64
	}{
		{"untrimmed-left", 10, []uint64{0, 5}, 0},
		{"untrimmed-right", 10, []uint64{5, 0}, 0},
		{"base-negative", -1, []uint64{1}, 0},
		{"window-overflow", sketchBuckets - 1, []uint64{1, 1}, 0},
		{"count-overflow", 0, []uint64{^uint64(0)}, 1},
		{"empty-with-base", 3, nil, 0},
		{"empty-with-extremes", 0, nil, 0},
	}
	for _, c := range cases {
		if _, err := SketchFromParts(c.base, c.counts, c.zero, 0, 1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// The sketch's whole reason to exist: its window is bounded by the global
// bucket space no matter how many observations it absorbs.
func TestSketchBoundedMemory(t *testing.T) {
	k := NewSketch()
	r := uint64(1)
	for i := 0; i < 500000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		// Spread values across ~40 octaves.
		k.Add(math.Ldexp(1+float64(r%1024)/1024, int(r>>58)-20))
	}
	_, counts, _, _, _ := k.Parts()
	if len(counts) > sketchBuckets {
		t.Fatalf("window %d exceeds global bucket space %d", len(counts), sketchBuckets)
	}
	if k.N() != 500000 {
		t.Fatalf("N = %d", k.N())
	}
}

func TestSketchEdgeValues(t *testing.T) {
	k := NewSketch()
	k.Add(math.NaN()) // clamps to 0
	k.Add(-5)         // clamps to 0
	if k.Min() != 0 || k.Max() != 0 || k.Quantile(0.5) != 0 {
		t.Fatalf("NaN/negative clamp: min=%v max=%v", k.Min(), k.Max())
	}

	// Underflow lands in the zero bucket but min stays exact.
	u := NewSketch()
	u.Add(1e-300)
	if u.Min() != 1e-300 || u.Quantile(1) != 1e-300 {
		t.Fatalf("underflow: min=%v q1=%v", u.Min(), u.Quantile(1))
	}

	// Overflow clamps into the top bucket; quantiles clamp to the exact max.
	o := NewSketch()
	o.Add(1)
	o.Add(1e300)
	if o.Max() != 1e300 || o.Quantile(1) != 1e300 {
		t.Fatalf("overflow: max=%v q1=%v", o.Max(), o.Quantile(1))
	}
}

func TestSampleBackendSelection(t *testing.T) {
	if NewSample(4).Exact() {
		t.Fatal("NewSample should be sketch-backed")
	}
	if !NewExactSample(4).Exact() {
		t.Fatal("NewExactSample should be exact")
	}
	if NewSampleLike(NewSample(0), 4).Exact() {
		t.Fatal("NewSampleLike(sketch) should be sketch-backed")
	}
	if !NewSampleLike(NewExactSample(0), 4).Exact() {
		t.Fatal("NewSampleLike(exact) should be exact")
	}
	if NewSampleLike(nil, 4).Exact() {
		t.Fatal("NewSampleLike(nil) should default to sketch")
	}
	if s := SampleFromSketch(nil); s.Sketch() == nil || s.Len() != 0 {
		t.Fatal("SampleFromSketch(nil) should wrap an empty sketch")
	}
}

func TestSampleMergeAcrossBackends(t *testing.T) {
	vs := []float64{1, 2, 3, 100, 1000}
	mk := func(exact bool) *Sample {
		s := NewSample(len(vs))
		if exact {
			s = NewExactSample(len(vs))
		}
		s.AddAll(vs)
		return s
	}
	for _, c := range []struct {
		name     string
		dst, src *Sample
	}{
		{"sketch<-sketch", mk(false), mk(false)},
		{"exact<-exact", mk(true), mk(true)},
		{"sketch<-exact", mk(false), mk(true)},
		{"exact<-sketch", mk(true), mk(false)},
	} {
		c.dst.Merge(c.src)
		if c.dst.Len() != 2*len(vs) {
			t.Errorf("%s: Len = %d, want %d", c.name, c.dst.Len(), 2*len(vs))
		}
		if got := c.dst.Median(); math.Abs(got-3) > SketchRelError*3 {
			t.Errorf("%s: median = %v, want ~3", c.name, got)
		}
		if c.dst.Max() < 1000*(1-SketchRelError) {
			t.Errorf("%s: max = %v", c.name, c.dst.Max())
		}
	}
	// Merging nil is a no-op.
	s := mk(false)
	s.Merge(nil)
	if s.Len() != len(vs) {
		t.Fatal("Merge(nil) changed the sample")
	}
}

// randomPoolInput returns one input of a pooling test: an empty sketch, a
// zero-only sketch, or a sketch whose values span a few octaves around one
// of four centers, so that two such windows are often disjoint and often
// overlap.
func randomPoolInput(rnd *rand.Rand) *Sample {
	s := NewSample(0)
	switch rnd.IntN(4) {
	case 0: // empty
	case 1:
		s.sk.AddN(0, 1+rnd.Uint64N(5))
	default:
		center := []int{-12, 0, 6, 20}[rnd.IntN(4)]
		span := 1 + rnd.IntN(4)
		for n := 1 + rnd.IntN(60); n > 0; n-- {
			s.Add(math.Ldexp(1+rnd.Float64(), center+rnd.IntN(span)))
		}
		if rnd.IntN(3) == 0 {
			s.sk.AddN(0, 1+rnd.Uint64N(3))
		}
	}
	return s
}

// samePool reports whether two pooled samples agree bit for bit on their
// backend, canonical state, quantiles, Mean and Stddev.
func samePool(a, b *Sample) bool {
	if a.Exact() != b.Exact() || a.Len() != b.Len() {
		return false
	}
	if !a.Exact() && !sketchEqual(a.sk, b.sk) {
		return false
	}
	if a.Exact() {
		av, bv := a.Values(), b.Values()
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if !same(a.Quantile(q), b.Quantile(q)) {
			return false
		}
	}
	return same(a.Mean(), b.Mean()) && same(a.Stddev(), b.Stddev())
}

// Pool gives the sample that merging its inputs one at a time gives, for
// any mix of empty, zero-only, disjoint and overlapping sketches with one
// exact sample among them; with the exact sample first the pool is exact.
func TestPoolMatchesSequentialMerge(t *testing.T) {
	rnd := rand.New(rand.NewPCG(42, 23))
	for trial := 0; trial < 500; trial++ {
		samples := make([]*Sample, 1+rnd.IntN(8))
		for i := range samples {
			samples[i] = randomPoolInput(rnd)
		}
		exact := NewExactSample(0)
		for n := rnd.IntN(20); n > 0; n-- {
			exact.Add(math.Ldexp(1+rnd.Float64(), rnd.IntN(30)-10))
		}
		exact.Add(0)
		samples[rnd.IntN(len(samples))] = exact

		pool := Pool(len(samples), func(i int) *Sample { return samples[i] })
		seq := NewSampleLike(samples[0], 0)
		for _, s := range samples {
			seq.Merge(s)
		}
		if !samePool(pool, seq) {
			t.Fatalf("trial %d: pooling %d samples differs from merging them one at a time", trial, len(samples))
		}
	}
	if p := Pool(0, nil); p.Exact() || p.Len() != 0 {
		t.Fatal("pooling no samples should give an empty sketch-backed sample")
	}
}

// A sketch pool allocates one window, sized to the union of its inputs'
// windows: the pool is its sample, its sketch and that window.
func TestPoolAllocatesOneWindow(t *testing.T) {
	rnd := rand.New(rand.NewPCG(7, 7))
	samples := make([]*Sample, 12)
	for i := range samples {
		samples[i] = randomPoolInput(rnd)
	}
	samples[5] = NewExactSample(2)
	samples[5].AddAll([]float64{1e-3, 5e9})
	at := func(i int) *Sample { return samples[i] }

	lo, hi := sketchBuckets, 0
	for _, s := range samples {
		l, h := s.window()
		lo, hi = min(lo, l), max(hi, h)
	}
	pool := Pool(len(samples), at)
	if pool.sk.base != lo || len(pool.sk.counts) != hi-lo {
		t.Fatalf("pool window [%d,%d), want the union [%d,%d)",
			pool.sk.base, pool.sk.base+len(pool.sk.counts), lo, hi)
	}
	if n := testing.AllocsPerRun(50, func() { Pool(len(samples), at) }); n != 3 {
		t.Fatalf("Pool made %v allocations, want 3 (sample, sketch, window)", n)
	}
}

// FuzzSketchMerge fuzzes the determinism contract end to end: decode the
// byte stream into observations, split it at two fuzzed cut points, and
// assert (1) merges are commutative and associative up to bit-identity,
// (2) the merged sketch equals the whole-stream sketch, and (3) quantiles
// stay within SketchRelError of the exact retained-sample oracle.
func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0))
	f.Add([]byte{0, 0, 0, 1, 255, 255, 31, 64}, byte(128), byte(64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, byte(200), byte(13))
	f.Add([]byte{0xff, 0xff, 0x00, 0x01, 0x80, 0x7f}, byte(3), byte(250))
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 byte) {
		var vals []float64
		for i := 0; i+1 < len(data); i += 2 {
			u := uint16(data[i]) | uint16(data[i+1])<<8
			// Mantissa from the low 12 bits, octave from the high 4: spans
			// 2^-6..2^9 scales including exact zeros.
			vals = append(vals, math.Ldexp(float64(u&0x0fff), int(u>>12)-6))
		}
		i := int(cut1) * len(vals) / 256
		j := i + int(cut2)*(len(vals)-i)/256

		all, ex := NewSketch(), NewExactSample(len(vals))
		shards := []*Sketch{NewSketch(), NewSketch(), NewSketch()}
		for n, v := range vals {
			all.Add(v)
			ex.Add(v)
			switch {
			case n < i:
				shards[0].Add(v)
			case n < j:
				shards[1].Add(v)
			default:
				shards[2].Add(v)
			}
		}

		ab := cloneSketch(t, shards[0])
		ab.Merge(shards[1])
		ba := cloneSketch(t, shards[1])
		ba.Merge(shards[0])
		if !sketchEqual(ab, ba) {
			t.Fatal("merge not commutative")
		}
		abc := cloneSketch(t, ab)
		abc.Merge(shards[2])
		bc := cloneSketch(t, shards[1])
		bc.Merge(shards[2])
		acc := cloneSketch(t, shards[0])
		acc.Merge(bc)
		if !sketchEqual(abc, acc) {
			t.Fatal("merge not associative")
		}
		if !sketchEqual(abc, all) {
			t.Fatal("merged shards differ from whole-stream sketch")
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got, want := abc.Quantile(q), ex.Quantile(q)
			if len(vals) == 0 {
				if !math.IsNaN(got) || !math.IsNaN(want) {
					t.Fatalf("empty quantile: sketch %v exact %v", got, want)
				}
				continue
			}
			if math.Abs(got-want) > SketchRelError*want+1e-12 {
				t.Fatalf("q=%v: sketch %v vs exact %v exceeds bound", q, got, want)
			}
		}
	})
}

func BenchmarkSketchAdd(b *testing.B) {
	k := NewSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Add(float64(i%100000) / 3)
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	k := NewSketch()
	for i := 0; i < 100000; i++ {
		k.Add(float64(i%10000) / 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Quantile(0.99)
	}
}
