package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// sampleOf builds an exact-backend sample: most tests in this file assert
// exact order-statistic semantics, which is what the exact backend (the
// sketch's oracle) guarantees. Sketch-backend behavior is covered by
// sketch_test.go and the both-backend tests below.
func sampleOf(vs ...float64) *Sample {
	s := NewExactSample(len(vs))
	s.AddAll(vs)
	return s
}

// bothBackends runs a subtest against each Sample backend.
func bothBackends(t *testing.T, fn func(t *testing.T, newSample func(int) *Sample)) {
	t.Run("sketch", func(t *testing.T) { fn(t, NewSample) })
	t.Run("exact", func(t *testing.T) { fn(t, NewExactSample) })
}

func TestQuantileExact(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := sampleOf(0, 10)
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) of {0,10} = %v, want 5", got)
	}
	if got := s.Quantile(0.99); math.Abs(got-9.9) > 1e-9 {
		t.Errorf("Quantile(0.99) = %v, want 9.9", got)
	}
}

func TestQuantileSingleton(t *testing.T) {
	s := sampleOf(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("singleton Quantile(%v) = %v", q, got)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	// Out-of-range q is always a harness bug and still panics.
	for _, fn := range []func(){
		func() { sampleOf(1).Quantile(-0.1) },
		func() { sampleOf(1).Quantile(1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEmptySampleIsNaN(t *testing.T) {
	// Empty samples are legitimate (filtered fault-injection ablations can
	// produce them), so every statistic — including Stddev, which returns
	// NaN explicitly rather than via propagation through Mean — returns NaN
	// rather than panicking on both backends.
	bothBackends(t, func(t *testing.T, newSample func(int) *Sample) {
		s := newSample(0)
		for name, fn := range map[string]func() float64{
			"Quantile": func() float64 { return s.Quantile(0.5) },
			"Median":   s.Median,
			"P99":      s.P99,
			"Max":      s.Max,
			"Min":      s.Min,
			"Mean":     s.Mean,
			"Stddev":   s.Stddev,
		} {
			if got := fn(); !math.IsNaN(got) {
				t.Errorf("empty %s = %v, want NaN", name, got)
			}
		}
		// NaN-ness must survive Reset (the zero-length state is re-entered).
		s.Add(3)
		s.Reset()
		if !math.IsNaN(s.Max()) {
			t.Errorf("Max after Reset = %v, want NaN", s.Max())
		}
		if !math.IsNaN(s.Stddev()) {
			t.Errorf("Stddev after Reset = %v, want NaN", s.Stddev())
		}
	})
}

func TestMinMaxMeanStddev(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Stddev() != 2 {
		t.Errorf("stddev = %v, want 2", s.Stddev())
	}
}

func TestSampleReset(t *testing.T) {
	s := sampleOf(1, 2, 3)
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	s.Add(9)
	if s.Median() != 9 {
		t.Fatal("sample unusable after Reset")
	}
}

func TestAddAfterSortStaysCorrect(t *testing.T) {
	s := sampleOf(5, 1)
	_ = s.Median() // forces sort
	s.Add(0)
	if s.Min() != 0 {
		t.Fatal("Add after sort not re-sorted")
	}
}

// Property: quantiles are monotone in q and bounded by min/max, on both
// backends (the sketch clamps interpolated representatives into the exact
// observed range, so the bound holds there too).
func TestQuantileMonotoneProperty(t *testing.T) {
	bothBackends(t, func(t *testing.T, newSample func(int) *Sample) {
		if err := quick.Check(func(raw []uint16, qa, qb uint8) bool {
			if len(raw) == 0 {
				return true
			}
			s := newSample(len(raw))
			for _, v := range raw {
				s.Add(float64(v))
			}
			q1 := float64(qa%101) / 100
			q2 := float64(qb%101) / 100
			if q1 > q2 {
				q1, q2 = q2, q1
			}
			v1, v2 := s.Quantile(q1), s.Quantile(q2)
			return v1 <= v2 && v1 >= s.Min() && v2 <= s.Max()
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBreakdownOf(t *testing.T) {
	// 0.5µs, 5µs, 50µs, 500µs, 5ms, 50ms — one value per bucket.
	b := BreakdownOf([]float64{0.5, 5, 50, 500, 5000, 50000})
	wantUnder := [5]float64{100.0 / 6, 200.0 / 6, 300.0 / 6, 400.0 / 6, 500.0 / 6}
	for i := range wantUnder {
		if math.Abs(b.Under[i]-wantUnder[i]) > 1e-9 {
			t.Errorf("Under[%d] = %v, want %v", i, b.Under[i], wantUnder[i])
		}
	}
	if math.Abs(b.Over-100.0/6) > 1e-9 {
		t.Errorf("Over = %v", b.Over)
	}
	if b.N != 6 {
		t.Errorf("N = %d", b.N)
	}
}

func TestBreakdownCumulative(t *testing.T) {
	b := BreakdownOf([]float64{0.5, 0.6, 0.7})
	for i, u := range b.Under {
		if u != 100 {
			t.Errorf("all sub-µs values: Under[%d] = %v, want 100", i, u)
		}
	}
	if b.Over != 0 {
		t.Errorf("Over = %v", b.Over)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := BreakdownOf(nil)
	if b.N != 0 || b.Over != 0 {
		t.Errorf("empty breakdown = %+v", b)
	}
}

func TestBreakdownRow(t *testing.T) {
	row := BreakdownOf([]float64{0.5, 5000000}).Row()
	if len(row) != 6 {
		t.Fatalf("row has %d cells", len(row))
	}
	if row[0] != "50.00" || row[5] != "50.00" {
		t.Errorf("row = %v", row)
	}
}

// Property: breakdown percentages are monotone non-decreasing across the
// cumulative columns and Under[4]+Over == 100 for non-empty inputs.
func TestBreakdownProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v) / 100
		}
		b := BreakdownOf(vals)
		for i := 1; i < 5; i++ {
			if b.Under[i] < b.Under[i-1] {
				return false
			}
		}
		return math.Abs(b.Under[4]+b.Over-100) < 1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestViolinSummary(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	v := ViolinOf(s, 16)
	if v.N != 100 || v.Min != 1 || v.Max != 100 {
		t.Errorf("violin basics: %+v", v)
	}
	if v.Median < 50 || v.Median > 51 {
		t.Errorf("median = %v", v.Median)
	}
	if v.Q1 >= v.Median || v.Q3 <= v.Median {
		t.Errorf("IQR box wrong: Q1=%v med=%v Q3=%v", v.Q1, v.Median, v.Q3)
	}
	if v.P2_5 > v.Q1 || v.P97_5 < v.Q3 {
		t.Errorf("95%% band inside IQR: %+v", v)
	}
	if len(v.Density) != 16 || len(v.DensityAt) != 16 {
		t.Fatalf("density length %d", len(v.Density))
	}
	peak := 0.0
	for _, d := range v.Density {
		if d < 0 || d > 1 {
			t.Errorf("density out of [0,1]: %v", d)
		}
		if d > peak {
			peak = d
		}
	}
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("density not normalized to peak 1: %v", peak)
	}
}

func TestViolinNoDensityForTinySample(t *testing.T) {
	v := ViolinOf(sampleOf(5), 16)
	if len(v.Density) != 0 {
		t.Error("singleton sample should have no density profile")
	}
	v = ViolinOf(sampleOf(5, 5, 5), 16)
	if len(v.Density) != 0 {
		t.Error("zero-range sample should have no density profile")
	}
}

func BenchmarkQuantile(b *testing.B) {
	s := NewSample(10000)
	for i := 0; i < 10000; i++ {
		s.Add(float64(i * 7 % 10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.99)
	}
}

func BenchmarkViolin(b *testing.B) {
	s := NewSample(1000)
	for i := 0; i < 1000; i++ {
		s.Add(1 + float64(i%997))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ViolinOf(s, 16)
	}
}

// naiveQuantile recomputes the q-quantile from scratch on a private copy —
// the oracle the cached implementation must match under any interleaving
// of mutation and query.
func naiveQuantile(vals []float64, q float64) float64 {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Property: the sorted-state cache (including the monotone-append fast
// path that keeps it valid) never changes any quantile. Each case drives a
// fresh Sample through a random interleaving of Add, AddAll, and quantile
// queries, checking every query against the naive oracle; appends are made
// partly monotone so the sorted fast path is exercised, not just the
// invalidation path.
func TestQuantileCachePropertyVsNaive(t *testing.T) {
	if err := quick.Check(func(ops []uint16, qs []uint8) bool {
		s := NewExactSample(0)
		var shadow []float64
		check := func(q float64) bool {
			if len(shadow) == 0 {
				return true
			}
			got, want := s.Quantile(q), naiveQuantile(shadow, q)
			return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
		}
		qi := 0
		nextQ := func() float64 {
			if len(qs) == 0 {
				return 0.5
			}
			q := float64(qs[qi%len(qs)]) / 255
			qi++
			return q
		}
		for i, op := range ops {
			v := float64(op)
			switch i % 4 {
			case 0: // monotone append keeps the cache warm
				if len(shadow) > 0 {
					v += shadow[len(shadow)-1]
				}
				s.Add(v)
				shadow = append(shadow, v)
			case 1: // arbitrary append may invalidate it
				s.Add(v)
				shadow = append(shadow, v)
			case 2:
				batch := []float64{v, v / 2, v * 2}
				s.AddAll(batch)
				shadow = append(shadow, batch...)
			default:
				if !check(nextQ()) {
					return false
				}
			}
		}
		return check(0) && check(nextQ()) && check(1) &&
			(len(shadow) == 0 || s.Len() == len(shadow))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// The monotone fast path must actually keep the cache valid: appending in
// order onto a queried (sorted) sample, then querying again, may not sort —
// observable here through Values() keeping the slice identity stable while
// staying sorted.
func TestSortedFastPathMonotoneAppend(t *testing.T) {
	s := NewExactSample(8)
	s.AddAll([]float64{1, 2, 3})
	_ = s.Median()
	s.Add(4)
	s.AddAll([]float64{5, 6})
	vals := s.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i-1] > vals[i] {
			t.Fatalf("values not sorted after monotone appends: %v", vals)
		}
	}
	if s.Quantile(1) != 6 || s.Quantile(0) != 1 {
		t.Fatalf("extremes wrong: min=%v max=%v", s.Quantile(0), s.Quantile(1))
	}
	// Out-of-order append must invalidate and re-sort on next query.
	s.Add(0.5)
	if s.Quantile(0) != 0.5 {
		t.Fatalf("min after out-of-order append = %v, want 0.5", s.Quantile(0))
	}
}
