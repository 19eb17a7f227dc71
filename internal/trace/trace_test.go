package trace

import (
	"strings"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/sim"
)

func us(n int) sim.Time { return sim.Time(n) * sim.Microsecond }

// partTime returns the time r attributes to cause, or zero.
func partTime(r BlameRecord, cause string) sim.Time {
	for _, p := range r.Parts {
		if p.Cause == cause {
			return p.Time
		}
	}
	return 0
}

func TestBlameRecordDecomposition(t *testing.T) {
	tr := New(Options{Threshold: us(100)})
	tr.BeginTask(3, 1, "p0/c1 fsync", 0, us(5))
	tr.Compute(3, us(10))
	tr.LockAcquired(3, kernel.LockJournal, us(60), 0, 7)
	tr.LockAcquired(3, kernel.LockJournal, us(20), 0, 1) // same lock accumulates
	tr.IPI(3, 63, us(4), us(6))
	tr.Steal(3, kernel.StealHousekeeping, us(15))
	tr.EndTask(3, us(130))

	if tr.Tasks() != 1 || tr.Outliers() != 1 {
		t.Fatalf("tasks=%d outliers=%d", tr.Tasks(), tr.Outliers())
	}
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	r := recs[0]
	if r.Cause != LockCause("journal") || r.CauseTime != us(80) {
		t.Fatalf("dominant = %s %v, want lock:journal 80µs", r.Cause, r.CauseTime)
	}
	if got := partTime(r, CauseCompute); got != us(10) {
		t.Fatalf("compute part = %v", got)
	}
	if got := partTime(r, CauseIPI); got != us(10) {
		t.Fatalf("ipi part = %v (busWait+cost)", got)
	}
	if got := partTime(r, StealCause(kernel.StealHousekeeping)); got != us(15) {
		t.Fatalf("steal part = %v", got)
	}
	// 5 queue + 10 compute + 80 lock + 10 ipi + 15 steal = 120; residual 10.
	if got := partTime(r, CauseOther); got != us(10) {
		t.Fatalf("other part = %v", got)
	}
	var sum sim.Time
	for _, p := range r.Parts {
		sum += p.Time
	}
	if sum != r.Wall {
		t.Fatalf("parts sum to %v, wall is %v", sum, r.Wall)
	}
	for i := 1; i < len(r.Parts); i++ {
		if r.Parts[i].Time > r.Parts[i-1].Time {
			t.Fatal("parts not sorted largest first")
		}
	}
	if !strings.Contains(r.String(), "lock:journal") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestBelowThresholdNotRecorded(t *testing.T) {
	tr := New(Options{Threshold: us(1000)})
	tr.BeginTask(0, 0, "fast", 0, 0)
	tr.Compute(0, us(5))
	tr.EndTask(0, us(5))
	if tr.Outliers() != 0 || len(tr.Records()) != 0 {
		t.Fatal("sub-threshold task recorded")
	}
	if tr.Tasks() != 1 {
		t.Fatal("task not counted")
	}
}

func TestMaxRecordsCap(t *testing.T) {
	tr := New(Options{Threshold: 1, MaxRecords: 2})
	for i := 0; i < 5; i++ {
		tr.BeginTask(0, 0, "slow", 0, 0)
		tr.EndTask(0, us(10))
	}
	if len(tr.Records()) != 2 {
		t.Fatalf("%d records retained, want 2", len(tr.Records()))
	}
	if tr.Outliers() != 5 || tr.RecordDrops() != 3 {
		t.Fatalf("outliers=%d recordDrops=%d", tr.Outliers(), tr.RecordDrops())
	}
}

// Hooks for a core with no begun task (a tracer attached mid-flight) are
// safe: lockstat aggregates, but the task earns no blame record.
func TestHooksNilBlameSafe(t *testing.T) {
	tr := New(Options{})
	tr.Compute(2, us(1))
	tr.LockAcquired(2, kernel.LockJournal, us(1), 0, 0)
	tr.MMapWait(2, us(1))
	tr.Steal(2, kernel.StealTick, us(1))
	tr.IPI(2, 3, us(1), us(1))
	tr.BlockIO(2, us(1), 0, us(1))
	tr.Sleep(2, us(1))
	tr.EndTask(2, us(5000)) // over threshold but no accumulator
	if len(tr.Records()) != 0 {
		t.Fatal("EndTask without BeginTask produced a record")
	}
	if tr.LockStat("journal") == nil {
		t.Fatal("lockstat aggregation must not depend on a task accumulator")
	}
	// A closed task's accumulator does not absorb later hooks either.
	tr.BeginTask(0, 0, "x", 0, 0)
	tr.EndTask(0, us(1))
	tr.Compute(0, us(5000))
	tr.EndTask(0, us(5000))
	if len(tr.Records()) != 0 || tr.Tasks() != 3 {
		t.Fatalf("records=%d tasks=%d after a closed task, want 0 and 3", len(tr.Records()), tr.Tasks())
	}
}

func TestLockStatsAggregationAndOrder(t *testing.T) {
	tr := New(Options{})
	tr.LockAcquired(0, kernel.LockZone, us(10), 0, 2)
	tr.LockAcquired(0, kernel.LockZone, 0, 0, 0)
	tr.LockReleased(0, kernel.LockZone, us(3))
	tr.LockAcquired(0, kernel.LockLRU, us(40), 0, 5)
	tr.MMapWait(0, us(2))

	ls := tr.LockStat("zone")
	if ls.Acquires != 2 || ls.Contended != 1 || ls.TotalWait != us(10) || ls.MaxWaiters != 2 {
		t.Fatalf("zone aggregate wrong: %+v", ls)
	}
	if ls.Holds != 1 || ls.TotalHold != us(3) || ls.MaxHold != us(3) {
		t.Fatalf("zone holds wrong: %+v", ls)
	}
	if ls.ContentionRate() != 0.5 {
		t.Fatalf("contention rate = %v", ls.ContentionRate())
	}
	all := tr.LockStats()
	if len(all) != 3 || all[0].Name != "lru" {
		t.Fatalf("LockStats order wrong: %v", all)
	}
	if tr.LockStat(MMapSemName).TotalWait != us(2) {
		t.Fatal("mmap_sem wait not aggregated")
	}
}

func TestMergeLockStats(t *testing.T) {
	mk := func(wait sim.Time) *Tracer {
		tr := New(Options{})
		tr.LockAcquired(0, kernel.LockJournal, wait, 0, 1)
		tr.LockReleased(0, kernel.LockJournal, wait/2)
		return tr
	}
	a, b := mk(us(10)), mk(us(30))
	merged := MergeLockStats([]*Tracer{a, b})
	if len(merged) != 1 {
		t.Fatalf("%d merged stats", len(merged))
	}
	m := merged[0]
	if m.Acquires != 2 || m.TotalWait != us(40) || m.MaxWait != us(30) {
		t.Fatalf("merged: %+v", m)
	}
	if m.Holds != 2 || m.TotalHold != us(20) || m.MaxHold != us(15) {
		t.Fatalf("merged holds: %+v", m)
	}
	if m.Wait.Count() != 2 {
		t.Fatal("histograms not merged")
	}
	// The inputs are untouched.
	if a.LockStat("journal").Acquires != 1 {
		t.Fatal("merge mutated its input")
	}
}

func TestTotalsOf(t *testing.T) {
	tr := New(Options{Threshold: 1})
	for i := 0; i < 3; i++ {
		tr.BeginTask(0, 0, "x", 0, 0)
		tr.LockAcquired(0, kernel.LockJournal, us(50), 0, 0)
		tr.Compute(0, us(5))
		tr.EndTask(0, us(55))
	}
	totals := TotalsOf(tr.Records())
	if len(totals) == 0 || totals[0].Cause != LockCause("journal") {
		t.Fatalf("totals = %+v", totals)
	}
	top := totals[0]
	if top.Dominated != 3 || top.Total != us(150) || top.Worst != us(50) {
		t.Fatalf("journal total = %+v", top)
	}
}

func TestEventKindAndStealNames(t *testing.T) {
	if kernel.StealHostResidency.String() != "host-residency" || kernel.StealKind(9).String() != "steal?" {
		t.Fatal("steal names wrong")
	}
	if StealCause(kernel.StealInjIPI) != "steal:injected-ipi" {
		t.Fatal("steal cause label wrong")
	}
}
