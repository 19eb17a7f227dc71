package core

import (
	"context"
	"math"
	"testing"

	"ksa/internal/platform"
)

func sweepOptions(parallel int) SweepOptions {
	sc := QuickScale()
	sc.CorpusPrograms = 8
	sc.Iterations = 4
	sc.Parallel = parallel
	return SweepOptions{
		Scale:   sc,
		Machine: platform.Machine{Cores: 8, MemGB: 4},
		Envs: []EnvSpec{
			{Kind: platform.KindNative},
			{Kind: platform.KindVMs, Units: 2},
			{Kind: platform.KindVMs, Units: 4},
			{Kind: platform.KindVMs, Units: 8},
			{Kind: platform.KindContainers, Units: 8},
		},
		Trials: 2,
		Trace:  true,
	}
}

// TestSweepBitIdentity is the repo's determinism contract for the parallel
// orchestrator: the same sweep run serially and with 8 workers must produce
// byte-identical outputs — every site's full latency vector (compared via
// Float64bits, so even NaN payloads or -0.0 would be caught), every decade
// breakdown, and every blame total.
func TestSweepBitIdentity(t *testing.T) {
	serial := must(RunSweep(context.Background(), sweepOptions(1)))
	for _, workers := range []int{2, 8} {
		par := must(RunSweep(context.Background(), sweepOptions(workers)))
		if len(par.Runs) != len(serial.Runs) {
			t.Fatalf("workers=%d: %d runs, serial had %d", workers, len(par.Runs), len(serial.Runs))
		}
		for i := range serial.Runs {
			compareRuns(t, workers, serial.Runs[i], par.Runs[i])
		}
	}
}

func compareRuns(t *testing.T, workers int, a, b SweepRun) {
	t.Helper()
	if a.Key() != b.Key() {
		t.Fatalf("workers=%d: run order diverged: %q vs %q", workers, a.Key(), b.Key())
	}
	key := a.Key()
	if a.Seed != b.Seed {
		t.Fatalf("workers=%d %s: seed %#x vs %#x", workers, key, a.Seed, b.Seed)
	}

	// Full per-site latency vectors, bit for bit.
	if len(a.Res.Sites) != len(b.Res.Sites) {
		t.Fatalf("workers=%d %s: %d sites vs %d", workers, key, len(a.Res.Sites), len(b.Res.Sites))
	}
	for i := range a.Res.Sites {
		sa, sb := a.Res.Sites[i], b.Res.Sites[i]
		if sa.Site != sb.Site || sa.Syscall != sb.Syscall {
			t.Fatalf("workers=%d %s: site %d identity diverged", workers, key, i)
		}
		va, vb := sa.Sample.Values(), sb.Sample.Values()
		if len(va) != len(vb) {
			t.Fatalf("workers=%d %s site %v: %d samples vs %d", workers, key, sa.Site, len(va), len(vb))
		}
		for j := range va {
			if math.Float64bits(va[j]) != math.Float64bits(vb[j]) {
				t.Fatalf("workers=%d %s site %v sample %d: %v vs %v",
					workers, key, sa.Site, j, va[j], vb[j])
			}
		}
	}

	// p50/p99 decade tables.
	for _, bk := range []struct {
		name string
		a, b [5]float64
	}{
		{"p50", a.Res.MedianBreakdown().Under, b.Res.MedianBreakdown().Under},
		{"p99", a.Res.P99Breakdown().Under, b.Res.P99Breakdown().Under},
	} {
		for i := range bk.a {
			if math.Float64bits(bk.a[i]) != math.Float64bits(bk.b[i]) {
				t.Fatalf("workers=%d %s: %s breakdown bucket %d: %v vs %v",
					workers, key, bk.name, i, bk.a[i], bk.b[i])
			}
		}
	}

	// Blame totals from the attached tracers.
	ta, tb := a.Res.BlameTotals(), b.Res.BlameTotals()
	if len(ta) != len(tb) {
		t.Fatalf("workers=%d %s: %d blame causes vs %d", workers, key, len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("workers=%d %s: blame cause %d: %+v vs %+v", workers, key, i, ta[i], tb[i])
		}
	}
}

// The sweep must also report sane fan-out metrics.
func TestSweepMetrics(t *testing.T) {
	res := must(RunSweep(context.Background(), sweepOptions(2)))
	if res.Par.Jobs != 10 {
		t.Fatalf("Jobs = %d, want 10", res.Par.Jobs)
	}
	if res.Par.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", res.Par.Workers)
	}
	if len(res.Par.JobWall) != 10 || len(res.Par.QueueWait) != 10 {
		t.Fatalf("per-job metric lengths = %d/%d, want 10", len(res.Par.JobWall), len(res.Par.QueueWait))
	}
	for i, w := range res.Par.JobWall {
		if w <= 0 {
			t.Fatalf("JobWall[%d] = %v, want > 0", i, w)
		}
	}
	if res.Par.Wall <= 0 || res.Par.Busy() <= 0 {
		t.Fatalf("Wall %v / Busy %v must be positive", res.Par.Wall, res.Par.Busy())
	}
}

// TestEnvSpecCheck: a spec fits a machine with at least one core and a
// positive, finite amount of memory, VM-style partitions dividing its
// cores and at least one container.
func TestEnvSpecCheck(t *testing.T) {
	paper := platform.PaperMachine
	cases := []struct {
		env  string
		m    platform.Machine
		fits bool
	}{
		{"native", paper, true},
		{"kvm-8", paper, true},
		{"lightvm-16", paper, true},
		{"specialized-64", paper, true},
		{"docker-3", paper, true},
		{"native", platform.Machine{Cores: 1, MemGB: 0.5}, true},
		{"native", platform.Machine{Cores: 0, MemGB: 32}, false},
		{"kvm-7", paper, false},
		{"lightvm-3", paper, false},
		{"specialized-128", paper, false},
		{"docker-64", platform.Machine{Cores: 8, MemGB: 4}, true},
		{"native", platform.Machine{Cores: 8, MemGB: -4}, false},
		{"kvm-8", platform.Machine{Cores: 8, MemGB: 0}, false},
		{"native", platform.Machine{Cores: 8, MemGB: math.NaN()}, false},
		{"native", platform.Machine{Cores: 8, MemGB: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		env, err := ParseEnvSpec(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Check(tc.m); (err == nil) != tc.fits {
			t.Errorf("%s on %+v: Check = %v, want fits=%v", tc.env, tc.m, err, tc.fits)
		}
	}
	// Units the parser refuses never reach Check from outside, but a Go
	// caller can build them: zero containers and zero VMs do not fit.
	for _, env := range []EnvSpec{{Kind: platform.KindContainers}, {Kind: platform.KindVMs}} {
		if env.Check(paper) == nil {
			t.Errorf("%v fits with zero units", env)
		}
	}
}
