package trace

import (
	"fmt"
	"sort"

	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// Cause labels for the fixed blame components. Lock waits use "lock:<name>"
// and steal streams "steal:<stream>".
const (
	CauseCompute  = "compute"
	CauseCPUQueue = "cpu-queue"
	CauseIPI      = "ipi"
	CauseBlockIO  = "block-io"
	CauseSleep    = "sleep"
	CauseOther    = "other"
	// CauseInjLockHold is wait time spent queued behind injected lock
	// holders (internal/fault) — separated from the emergent "lock:<name>"
	// contention so dosed interference is distinguishable from the
	// interference the model produces on its own.
	CauseInjLockHold = "injected:lock-hold"
)

// LockCause returns the blame-cause label for a lock name.
func LockCause(name string) string { return "lock:" + name }

// StealCause returns the blame-cause label for a steal stream.
func StealCause(kind kernel.StealKind) string { return "steal:" + kind.String() }

// lockAmount is one lock's accumulated wait within a task.
type lockAmount struct {
	name string
	wait sim.Time
}

// taskBlame accumulates one task's wall-time decomposition while it runs.
// Tasks touch few distinct locks, so lock waits live in a small slice
// rather than a map.
type taskBlame struct {
	open bool // a task is running and was begun while attached

	Label string
	Core  int
	// Tenant is the task's stable tenant identity (kernel.NoTenant when
	// the submitter carries none).
	Tenant int
	Start  sim.Time

	QueueWait sim.Time
	Compute   sim.Time
	IPI       sim.Time
	BlockIO   sim.Time
	Sleep     sim.Time
	// InjLockWait is lock wait attributed to injected holders; injected
	// CPU steal lands in Steal under its own kinds.
	InjLockWait sim.Time
	Steal       [kernel.NumStealKinds]sim.Time

	lockWait []lockAmount
}

func (tb *taskBlame) addLock(name string, wait sim.Time) {
	if wait <= 0 {
		return
	}
	for i := range tb.lockWait {
		if tb.lockWait[i].name == name {
			tb.lockWait[i].wait += wait
			return
		}
	}
	tb.lockWait = append(tb.lockWait, lockAmount{name, wait})
}

// Part is one component of a blame decomposition.
type Part struct {
	Cause string
	Time  sim.Time
}

// BlameRecord is the decomposition of one over-threshold task.
type BlameRecord struct {
	Label string
	Core  int
	// Tenant is the task's tenant identity, carried so cross-tenant blame
	// reports can group outliers by victim tenant.
	Tenant int
	Start  sim.Time
	End    sim.Time
	Wall   sim.Time
	// Cause is the dominant contributor; CauseTime its share of Wall.
	Cause     string
	CauseTime sim.Time
	// Parts is the full decomposition, largest first. Components sum to
	// Wall; any unattributed residue appears as "other".
	Parts []Part
}

// record freezes the accumulator into a BlameRecord for a task that took
// wall in all.
func (tb *taskBlame) record(wall sim.Time) BlameRecord {
	parts := make([]Part, 0, 6+len(tb.lockWait))
	add := func(cause string, t sim.Time) {
		if t > 0 {
			parts = append(parts, Part{cause, t})
		}
	}
	add(CauseCompute, tb.Compute)
	add(CauseCPUQueue, tb.QueueWait)
	add(CauseIPI, tb.IPI)
	add(CauseBlockIO, tb.BlockIO)
	add(CauseSleep, tb.Sleep)
	add(CauseInjLockHold, tb.InjLockWait)
	for k, t := range tb.Steal {
		add(StealCause(kernel.StealKind(k)), t)
	}
	var accounted sim.Time
	for _, la := range tb.lockWait {
		add(LockCause(la.name), la.wait)
	}
	for _, p := range parts {
		accounted += p.Time
	}
	if res := wall - accounted; res > 0 {
		add(CauseOther, res)
	}
	// Largest first; ties break by cause name so records are deterministic.
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].Time != parts[j].Time {
			return parts[i].Time > parts[j].Time
		}
		return parts[i].Cause < parts[j].Cause
	})
	rec := BlameRecord{
		Label: tb.Label, Core: tb.Core, Tenant: tb.Tenant, Start: tb.Start,
		End: tb.Start + wall, Wall: wall, Parts: parts,
	}
	if len(parts) > 0 {
		rec.Cause = parts[0].Cause
		rec.CauseTime = parts[0].Time
	}
	return rec
}

// PartTime returns the time attributed to cause, or zero.
func (r *BlameRecord) PartTime(cause string) sim.Time {
	for _, p := range r.Parts {
		if p.Cause == cause {
			return p.Time
		}
	}
	return 0
}

// String renders the record compactly, e.g.
// "p3/c7 fsync core12 wall=2.31ms <- lock:journal 1.98ms (86%)".
func (r *BlameRecord) String() string {
	share := 0.0
	if r.Wall > 0 {
		share = 100 * float64(r.CauseTime) / float64(r.Wall)
	}
	return fmt.Sprintf("%s core%d wall=%v <- %s %v (%.0f%%)",
		r.Label, r.Core, r.Wall, r.Cause, r.CauseTime, share)
}

// CauseTotal aggregates one cause's contribution across blame records.
type CauseTotal struct {
	Cause string
	// Dominated counts records where this cause was the top contributor.
	Dominated int
	// Total is the cause's time summed across all records (dominant or
	// not); Worst is its largest single attribution.
	Total sim.Time
	Worst sim.Time
}

// TotalsOf aggregates records by cause, sorted by total time descending
// (ties by name). It accepts records pooled from several tracers.
func TotalsOf(recs []BlameRecord) []CauseTotal {
	byCause := map[string]*CauseTotal{}
	var order []string
	for i := range recs {
		r := &recs[i]
		for _, p := range r.Parts {
			ct, ok := byCause[p.Cause]
			if !ok {
				ct = &CauseTotal{Cause: p.Cause}
				byCause[p.Cause] = ct
				order = append(order, p.Cause)
			}
			ct.Total += p.Time
			if p.Time > ct.Worst {
				ct.Worst = p.Time
			}
		}
		if r.Cause != "" {
			byCause[r.Cause].Dominated++
		}
	}
	out := make([]CauseTotal, 0, len(order))
	for _, c := range order {
		out = append(out, *byCause[c])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}
