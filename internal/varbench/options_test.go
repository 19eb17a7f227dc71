package varbench

import (
	"testing"

	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

func TestWithDefaultsZeroSelectsDefault(t *testing.T) {
	o := Options{}.withDefaults()
	want := Options{Iterations: 30, BarrierHop: 2 * sim.Microsecond, ReleaseSkewMean: 8 * sim.Microsecond}
	if o.Iterations != want.Iterations {
		t.Errorf("Iterations = %d, want %d", o.Iterations, want.Iterations)
	}
	if o.BarrierHop != want.BarrierHop {
		t.Errorf("BarrierHop = %v, want %v", o.BarrierHop, want.BarrierHop)
	}
	if o.ReleaseSkewMean != want.ReleaseSkewMean {
		t.Errorf("ReleaseSkewMean = %v, want %v", o.ReleaseSkewMean, want.ReleaseSkewMean)
	}
}

func TestWithDefaultsExplicitZero(t *testing.T) {
	o := Options{
		Iterations:      ExplicitZero,
		Warmup:          -3,
		BarrierHop:      ExplicitZero,
		ReleaseSkewMean: ExplicitZero,
	}.withDefaults()
	if o.Iterations != 0 {
		t.Errorf("Iterations = %d, want literal 0", o.Iterations)
	}
	if o.Warmup != 0 {
		t.Errorf("Warmup = %d, want 0", o.Warmup)
	}
	if o.BarrierHop != 0 {
		t.Errorf("BarrierHop = %v, want literal 0", o.BarrierHop)
	}
	if o.ReleaseSkewMean != 0 {
		t.Errorf("ReleaseSkewMean = %v, want literal 0", o.ReleaseSkewMean)
	}
}

func TestWithDefaultsKeepsExplicitValues(t *testing.T) {
	o := Options{Iterations: 7, Warmup: 1, BarrierHop: sim.Microsecond,
		ReleaseSkewMean: 3 * sim.Microsecond}.withDefaults()
	if o.Iterations != 7 || o.Warmup != 1 || o.BarrierHop != sim.Microsecond ||
		o.ReleaseSkewMean != 3*sim.Microsecond {
		t.Errorf("explicit options were rewritten: %+v", o)
	}
}

// A warmup-only run (Iterations: ExplicitZero) must complete end to end:
// no samples recorded, empty-but-callable breakdowns, no panics.
func TestRunZeroIterations(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Native(sim.NewEngine(), smallMachine(), rng.New(3))
	res := Run(env, c, Options{Iterations: ExplicitZero, Warmup: 2})
	if res.Iterations != 0 {
		t.Fatalf("res.Iterations = %d, want 0", res.Iterations)
	}
	for _, sr := range res.Sites {
		if sr.Sample.Len() != 0 {
			t.Fatalf("site %+v recorded %d samples in a warmup-only run", sr.Site, sr.Sample.Len())
		}
	}
	for _, b := range []struct {
		name string
		n    int
	}{
		{"median", res.MedianBreakdown().N},
		{"p99", res.P99Breakdown().N},
		{"max", res.MaxBreakdown().N},
	} {
		if b.n != 0 {
			t.Fatalf("%s breakdown N = %d, want 0", b.name, b.n)
		}
	}
}

// An idealized run: free barrier, no release skew.
func TestRunIdealBarrier(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Native(sim.NewEngine(), smallMachine(), rng.New(5))
	res := Run(env, c, Options{Iterations: 2,
		BarrierHop: ExplicitZero, ReleaseSkewMean: ExplicitZero})
	for _, sr := range res.Sites {
		if sr.Sample.Len() != env.NumCores()*2 {
			t.Fatalf("site %+v has %d samples, want %d", sr.Site, sr.Sample.Len(), env.NumCores()*2)
		}
	}
}
