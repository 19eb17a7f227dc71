package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/syscalls"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// The paper's central claim is that a shared kernel's heavy tails come
// from identifiable shared structures. The blame subsystem must recover
// that on the seed corpus at Native/64-core: at least one fs-category
// >1ms outlier pinned on the journal lock, and at least one mm-category
// outlier pinned on IPI/TLB-shootdown work.
func TestBlameAttributionOnSeedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale traced run")
	}
	res := must(RunBlame(context.Background(), DefaultScale(), EnvSpec{Kind: platform.KindNative}, 0))
	r := res.Res
	tab := syscalls.Default()
	cats := map[varbench.Site]syscalls.Category{}
	for _, sr := range r.Sites {
		cats[sr.Site] = tab.Get(sr.Syscall).Cats
	}
	var fsJournal, mmIPI int
	recs := r.BlameRecords()
	for i := range recs {
		rec := &recs[i]
		s, ok := r.SiteOf(rec)
		if !ok {
			t.Fatalf("record %q maps to no site", rec.Label)
		}
		if cats[s].Has(syscalls.CatFS) && rec.Cause == trace.LockCause("journal") {
			fsJournal++
		}
		if cats[s].Has(syscalls.CatMem) &&
			(rec.Cause == trace.CauseIPI || rec.Cause == trace.StealCause(kernel.StealIPIHandler)) {
			mmIPI++
		}
	}
	if fsJournal == 0 {
		t.Error("no fs-category >1ms outlier blamed on the journal lock")
	}
	if mmIPI == 0 {
		t.Error("no mm-category >1ms outlier blamed on IPI/TLB shootdown")
	}
	rendered := res.Render()
	for _, want := range []string{"lock:journal", "ipi", "lockstat"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

// RunBlame is itself deterministic: two runs at the same scale agree on
// every blame record.
func TestRunBlameDeterministic(t *testing.T) {
	a := quick(t, "blame").Result.(BlameResult)
	b := must(RunBlame(context.Background(), QuickScale(), EnvSpec{Kind: platform.KindNative}, 0))
	ra, rb := a.Res.BlameRecords(), b.Res.BlameRecords()
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("record counts differ or empty: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Label != rb[i].Label || ra[i].Wall != rb[i].Wall ||
			ra[i].Cause != rb[i].Cause || ra[i].CauseTime != rb[i].CauseTime {
			t.Fatalf("record %d differs across identical runs:\n%v\n%v", i, ra[i], rb[i])
		}
	}
}

// The CSV export carries one row per (record, part) and is parseable.
func TestBlameCSV(t *testing.T) {
	out := quick(t, "blame")
	res := out.Result.(BlameResult)
	lines := strings.Split(strings.TrimSpace(out.CSV), "\n")
	if len(lines) < 2 {
		t.Fatal("CSV has no data rows")
	}
	if !strings.HasPrefix(lines[0], "kernel,label,core,end_us,wall_us,dominant,cause,cause_us,share") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	nRecs := len(res.Res.BlameRecords())
	if len(lines)-1 < nRecs {
		t.Fatalf("%d CSV rows for %d records (need >= one row per record)", len(lines)-1, nRecs)
	}
}

// A traced run keeps what the blame report reads — lockstat, blame records
// and task counts — and nothing per event, so its memory does not grow with
// the number of kernels traced: a quick kvm-64 run, 64 one-core kernels,
// allocates well under 100 MiB.
func TestTracedRunMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	must(RunBlame(context.Background(), QuickScale(), EnvSpec{Kind: platform.KindVMs, Units: 64}, 0))
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if mib >= 100 {
		t.Fatalf("traced kvm-64 quick run allocated %.0f MiB, want under 100", mib)
	}
	t.Logf("traced kvm-64 quick run allocated %.1f MiB", mib)
}
