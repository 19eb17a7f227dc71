package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(7)
	b := New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Reseed did not reset state at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(1)
	parent2 := New(99)
	c1again := parent2.Split(1)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatalf("Split not deterministic at step %d", i)
		}
	}
	// Different tags must give different streams.
	p3, p4 := New(99), New(99)
	ca, cb := p3.Split(1), p4.Split(2)
	diff := false
	for i := 0; i < 16; i++ {
		if ca.Uint64() != cb.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split with different tags produced identical streams")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp(5) sample mean %v, want ≈5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Normal mean %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance %v, want ≈4", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.3); v < 2 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A Pareto(alpha=1.1) sample should show max >> median; verify the tail
	// is much heavier than exponential with the same scale.
	r := New(12)
	const n = 100000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.Pareto(1, 1.1)
	}
	sort.Float64s(vals)
	median := vals[n/2]
	p999 := vals[n*999/1000]
	if p999/median < 50 {
		t.Fatalf("Pareto tail too light: p99.9/median = %v", p999/median)
	}
}

func TestBoundedParetoClamp(t *testing.T) {
	r := New(13)
	for i := 0; i < 100000; i++ {
		v := r.BoundedPareto(1, 100, 1.1)
		if v < 1 || v > 100 {
			t.Fatalf("BoundedPareto out of [1,100]: %v", v)
		}
	}
}

func TestWeightedPickRespectsWeights(t *testing.T) {
	r := New(16)
	counts := [3]int{}
	const n = 100000
	w := []float64{1, 0, 3}
	for i := 0; i < n; i++ {
		counts[WeightedPick(r, w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %v, want ≈3", ratio)
	}
}

func TestWeightedPickAllZeroUniform(t *testing.T) {
	r := New(17)
	counts := [4]int{}
	for i := 0; i < 40000; i++ {
		counts[WeightedPick(r, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("all-zero weights not uniform: counts[%d]=%d", i, c)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkPareto(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Pareto(1, 1.3)
	}
}
