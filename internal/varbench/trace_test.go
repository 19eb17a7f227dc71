package varbench

import (
	"strings"
	"testing"

	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/trace"
)

// Tracing is observational: the same run with a tracer attached must
// produce bit-identical virtual-time latencies at every call site. This is
// the determinism guard the trace package's contract promises.
func TestTracingDoesNotChangeMeasurement(t *testing.T) {
	c := smallCorpus(t)
	run := func(topts *trace.Options) *Result {
		env := platform.Native(sim.NewEngine(), smallMachine(), rng.New(9))
		return Run(env, c, Options{Iterations: 4, Warmup: 1, Seed: 9, Trace: topts})
	}
	plain := run(nil)
	traced := run(&trace.Options{Threshold: sim.Microsecond}) // record aggressively
	for i := range plain.Sites {
		pv, tv := plain.Sites[i].Sample.Values(), traced.Sites[i].Sample.Values()
		if len(pv) != len(tv) {
			t.Fatalf("site %d sample counts differ: %d vs %d", i, len(pv), len(tv))
		}
		for j := range pv {
			if pv[j] != tv[j] {
				t.Fatalf("site %d sample %d differs with tracing on: %v vs %v",
					i, j, pv[j], tv[j])
			}
		}
	}
	if len(traced.Tracers) != 1 {
		t.Fatalf("%d tracers, want 1", len(traced.Tracers))
	}
	if traced.Tracers[0].Tasks() == 0 {
		t.Fatal("tracer attached but observed nothing")
	}
	if len(plain.Tracers) != 0 {
		t.Fatal("untraced run grew tracers")
	}
}

// kernel.Stats lock accounting is maintained unconditionally and must stay
// in lockstep with the tracer's aggregates: total lock wait and hold
// counts agree exactly.
func TestKernelStatsInSyncWithTracer(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Native(sim.NewEngine(), smallMachine(), rng.New(9))
	res := Run(env, c, Options{Iterations: 4, Warmup: 1, Seed: 9, Trace: &trace.Options{}})
	if len(env.Kernels) != 1 || len(res.Tracers) != 1 {
		t.Fatal("expected one kernel, one tracer")
	}
	st := env.Kernels[0].Stats()
	tr := res.Tracers[0]
	var wait sim.Time
	var holds uint64
	for _, ls := range tr.LockStats() {
		wait += ls.TotalWait
		holds += ls.Holds
	}
	if st.LockWait != wait {
		t.Fatalf("Stats.LockWait = %v, tracer total = %v", st.LockWait, wait)
	}
	if st.LockHolds != holds {
		t.Fatalf("Stats.LockHolds = %d, tracer total = %d", st.LockHolds, holds)
	}
	if st.LockHolds == 0 || st.LockWait == 0 {
		t.Fatal("no lock activity observed — corpus too small for the sync check")
	}
	s := st.String()
	for _, field := range []string{"lockholds=", "lockwait=", "tasks=", "ipis="} {
		if !strings.Contains(s, field) {
			t.Fatalf("Stats.String() = %q missing %q", s, field)
		}
	}
}

// Blame records map back to the call sites they came from.
func TestSiteBlameMapping(t *testing.T) {
	c := smallCorpus(t)
	env := platform.Native(sim.NewEngine(), smallMachine(), rng.New(9))
	// A tiny threshold makes every call an outlier, so every site with
	// samples must be reachable from the records.
	res := Run(env, c, Options{Iterations: 2, Warmup: 0, Seed: 9,
		Trace: &trace.Options{Threshold: 1, MaxRecords: 1 << 20}})
	recs := res.BlameRecords()
	if len(recs) == 0 {
		t.Fatal("no blame records at 1ns threshold")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Wall > recs[i-1].Wall {
			t.Fatal("BlameRecords not sorted by wall time descending")
		}
	}
	seen := map[Site]bool{}
	for i := range recs {
		s, ok := res.SiteOf(&recs[i])
		if !ok {
			t.Fatalf("record %q maps to no site", recs[i].Label)
		}
		seen[s] = true
	}
	if len(seen) != len(res.Sites) {
		t.Fatalf("records cover %d sites, want %d", len(seen), len(res.Sites))
	}
	first := res.Sites[0].Site
	sb := res.SiteBlame(first)
	if len(sb) == 0 {
		t.Fatal("SiteBlame empty for a site with records")
	}
	for i := range sb {
		if got, _ := res.SiteOf(&sb[i]); got != first {
			t.Fatal("SiteBlame returned a foreign record")
		}
	}
	if len(res.BlameTotals()) == 0 {
		t.Fatal("no cause totals")
	}
}

// Every kernel of a partitioned environment gets its own tracer.
func TestTracersPerKernel(t *testing.T) {
	c := smallCorpus(t)
	env := platform.VMs(sim.NewEngine(), smallMachine(), 4, rng.New(9))
	res := Run(env, c, Options{Iterations: 2, Warmup: 0, Seed: 9, Trace: &trace.Options{}})
	if len(res.Tracers) != len(env.Kernels) {
		t.Fatalf("%d tracers for %d kernels", len(res.Tracers), len(env.Kernels))
	}
	for i, tr := range res.Tracers {
		if tr.Tasks() == 0 {
			t.Fatalf("kernel %d tracer observed no tasks", i)
		}
	}
}
