package trace

import (
	"sort"

	"ksa/internal/sim"
	"ksa/internal/stats"
)

// LockStat is one lock's (or lock family's) aggregated wait/hold profile.
// Sharded lock families aggregate under their family name ("inode[*]"),
// which is the granularity blame attribution cares about.
type LockStat struct {
	Name string

	// Acquires counts grants; Contended those that waited. MaxWaiters is
	// the longest waiter chain observed at request time.
	Acquires   uint64
	Contended  uint64
	MaxWaiters int

	// Holds counts releases (mmap_sem aggregates waits only).
	Holds uint64

	TotalWait sim.Time
	MaxWait   sim.Time
	TotalHold sim.Time
	MaxHold   sim.Time

	// Wait and Hold are constant-footprint log2 histograms (µs).
	Wait stats.LatHist
	Hold stats.LatHist
}

// grant books one grant that waited wait.
func (ls *LockStat) grant(wait sim.Time) {
	ls.Acquires++
	if wait > 0 {
		ls.Contended++
		ls.TotalWait += wait
		if wait > ls.MaxWait {
			ls.MaxWait = wait
		}
	}
	ls.Wait.Add(wait.Micros())
}

// ContentionRate returns the fraction of acquires that waited.
func (ls *LockStat) ContentionRate() float64 {
	if ls.Acquires == 0 {
		return 0
	}
	return float64(ls.Contended) / float64(ls.Acquires)
}

// LockStats returns the per-lock aggregates sorted by total wait time
// descending (ties by name) — the lockstat view: the locks at the top are
// where the kernel's cross-tenant interference concentrates.
func (tr *Tracer) LockStats() []*LockStat {
	out := make([]*LockStat, 0, len(tr.lockOrder))
	for _, name := range tr.lockOrder {
		out = append(out, tr.locks[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWait != out[j].TotalWait {
			return out[i].TotalWait > out[j].TotalWait
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LockStat returns the named lock's aggregate, or nil if never touched.
func (tr *Tracer) LockStat(name string) *LockStat { return tr.locks[name] }

// merge folds src into ls.
func (ls *LockStat) merge(src *LockStat) {
	ls.Acquires += src.Acquires
	ls.Contended += src.Contended
	if src.MaxWaiters > ls.MaxWaiters {
		ls.MaxWaiters = src.MaxWaiters
	}
	ls.Holds += src.Holds
	ls.TotalWait += src.TotalWait
	if src.MaxWait > ls.MaxWait {
		ls.MaxWait = src.MaxWait
	}
	ls.TotalHold += src.TotalHold
	if src.MaxHold > ls.MaxHold {
		ls.MaxHold = src.MaxHold
	}
	ls.Wait.Merge(&src.Wait)
	ls.Hold.Merge(&src.Hold)
}

// MergeLockStats pools per-lock aggregates across tracers — e.g. the 64
// kernels of a one-core-per-VM environment — sorted like LockStats. The
// inputs are not modified.
func MergeLockStats(trs []*Tracer) []*LockStat {
	byName := map[string]*LockStat{}
	var out []*LockStat
	for _, tr := range trs {
		for _, name := range tr.lockOrder {
			dst, ok := byName[name]
			if !ok {
				dst = &LockStat{Name: name}
				byName[name] = dst
				out = append(out, dst)
			}
			dst.merge(tr.locks[name])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWait != out[j].TotalWait {
			return out[i].TotalWait > out[j].TotalWait
		}
		return out[i].Name < out[j].Name
	})
	return out
}
