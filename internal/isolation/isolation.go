package isolation

import (
	"sort"

	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// Scope is one attribution bucket of shared kernel state: a lock family
// inside one kernel ("vm3/inode[*]"), one kernel's IPI bus, or a
// machine-wide device ("host-blk", "node-blk"). Scopes — not individual
// shard locks — are the granularity cross-tenant wait is accounted at:
// per-shard identity is noise (which hash bucket), while the scope answers
// the isolation question (which structure, inside or across which kernel).
type Scope struct {
	name   string
	family string

	// Per-holder-tenant cumulative hold time, lazily allocated on the
	// first recorded hold. Injected holds never land here: the injector is
	// not a tenant, and its share of a waiter's delay arrives separately
	// as injWait.
	hold      []sim.Time
	totalHold sim.Time
	holds     uint64

	// Per-waiter-tenant wait decomposition, lazily allocated on the first
	// contended grant.
	wait      []sim.Time // full wait (emergent + injected)
	cross     []sim.Time // wait caused by other tenants' holds
	inj       []sim.Time // wait caused by injected holders
	acquires  uint64
	contended uint64

	// Touch tracking for the shared-lock-surface count: first is the first
	// tenant that ever acquired in this scope (kernel.NoTenant before any),
	// multi reports a second distinct tenant arrived.
	first int
	multi bool

	rec *Recorder
}

// Name returns the scope's instance name (kernel-qualified for per-kernel
// structures, bare for machine-wide devices).
func (s *Scope) Name() string { return s.name }

// Family returns the scope's aggregation family ("inode[*]", "ipi-bus",
// "block-device", "host-blk", ...).
func (s *Scope) Family() string { return s.family }

// Shared reports whether at least two distinct tenants acquired in this
// scope.
func (s *Scope) Shared() bool { return s.multi }

func (s *Scope) ensureTenants() {
	if s.hold == nil {
		n := s.rec.numTenants
		s.hold = make([]sim.Time, n)
		s.wait = make([]sim.Time, n)
		s.cross = make([]sim.Time, n)
		s.inj = make([]sim.Time, n)
	}
}

// Touch records one acquisition (contended or not) by tenant, maintaining
// the shared-surface flags. Call on every grant; it is two compares on the
// hot path.
func (s *Scope) Touch(tenant int) {
	s.acquires++
	if s.multi || tenant == kernel.NoTenant {
		return
	}
	if s.first == kernel.NoTenant {
		s.first = tenant
	} else if s.first != tenant {
		s.multi = true
	}
}

// Wait records one contended grant: tenant waited `wait`, of which
// `injWait` is attributed to injected holders (internal/fault). The
// remainder is cross-tenant by construction under the one-task-per-tenant
// model: while a tenant's only task is queued, no task of the same tenant
// can hold anything, so every emergent hold it queued behind belongs to
// another tenant. The per-holder accumulators recorded by Hold distribute
// that cross wait over holder tenants when matrices are built.
func (s *Scope) Wait(tenant int, wait, injWait sim.Time) {
	if wait <= 0 || tenant == kernel.NoTenant {
		return
	}
	if injWait > wait {
		injWait = wait
	}
	s.ensureTenants()
	s.contended++
	s.wait[tenant] += wait
	s.cross[tenant] += wait - injWait
	s.inj[tenant] += injWait
}

// Hold records one completed hold of duration d by tenant (holder
// preemption included — a housekeeping burst landing on the holder extends
// everyone's attributed cause, exactly as it extends their waits).
func (s *Scope) Hold(tenant int, d sim.Time) {
	if d <= 0 || tenant == kernel.NoTenant {
		return
	}
	s.ensureTenants()
	s.holds++
	s.hold[tenant] += d
	s.totalHold += d
}

// taskRec is one completed task's isolation-relevant accounting.
type taskRec struct {
	wall  sim.Time
	wait  sim.Time
	cross sim.Time
	inj   sim.Time
}

// Recorder aggregates one environment run's cross-tenant contention: the
// tenant×lock graph (per-scope wait/hold/cross vectors) plus per-tenant
// per-task retention the tail-isolation score is computed from. A recorder
// observes every kernel of an environment (KernelObserver) from before work
// is submitted; it is single-threaded like the engine.
type Recorder struct {
	numTenants int
	scopes     map[string]*Scope
	order      []string
	tasks      [][]taskRec
}

// NewRecorder builds a recorder for an environment with numTenants tenants
// (the harness uses one tenant per machine core).
func NewRecorder(numTenants int) *Recorder {
	return &Recorder{
		numTenants: numTenants,
		scopes:     make(map[string]*Scope),
		tasks:      make([][]taskRec, numTenants),
	}
}

// NumTenants returns the tenant-space size.
func (r *Recorder) NumTenants() int { return r.numTenants }

// Scope returns (creating if needed) the named scope. Two kernels
// resolving the same name — the shared host or node block device — get one
// scope, which is exactly what makes the device's contention cross-kernel
// attributable.
func (r *Recorder) Scope(name, family string) *Scope {
	if s, ok := r.scopes[name]; ok {
		return s
	}
	s := &Scope{name: name, family: family, first: kernel.NoTenant, rec: r}
	r.scopes[name] = s
	r.order = append(r.order, name)
	return s
}

// EndTask retains one completed task's accounting for the tail score.
// wall is the task's total latency; wait/cross/inj are its accumulated
// resource-wait decomposition.
func (r *Recorder) EndTask(tenant int, wall, wait, cross, inj sim.Time) {
	if tenant < 0 || tenant >= r.numTenants {
		return
	}
	r.tasks[tenant] = append(r.tasks[tenant], taskRec{wall: wall, wait: wait, cross: cross, inj: inj})
}

// Tasks returns how many completed tasks the recorder retained.
func (r *Recorder) Tasks() int {
	n := 0
	for _, t := range r.tasks {
		n += len(t)
	}
	return n
}

// Score is the per-environment isolation summary.
type Score struct {
	// Value is the isolation score: the fraction of tail wall time caused
	// by other tenants' lock holds, pooled over tenants —
	// Σ_t TailCross(t) / Σ_t TailWall(t). 0 = perfectly isolated tails,
	// 1 = tails made entirely of cross-tenant wait.
	Value float64
	// TailTasks counts the tasks in the pooled tail set (per tenant, wall
	// time at or above that tenant's own p99).
	TailTasks int
	// Tail totals over the tail set.
	TailWall, TailWait, TailCross, TailInj sim.Time
	// Whole-run totals over every task.
	Wall, Wait, Cross, Inj sim.Time
	// SharedFamilies counts lock families with at least one scope acquired
	// by ≥2 distinct tenants — the shared-lock surface. TouchedFamilies is
	// the denominator: families with any acquisition at all.
	SharedFamilies, TouchedFamilies int
}

// ComputeScore derives the isolation score from the retained tasks. Per
// tenant, the tail set is every task whose wall time is at or above that
// tenant's own p99 (index ⌈0.99·n⌉−1 of the sorted walls); the score pools
// tail cross-wait over tail wall across tenants. All arithmetic is
// integer-exact until the final division, so the score is deterministic.
func (r *Recorder) ComputeScore() Score {
	var sc Score
	walls := make([]sim.Time, 0, 1024)
	for tenant := 0; tenant < r.numTenants; tenant++ {
		recs := r.tasks[tenant]
		if len(recs) == 0 {
			continue
		}
		walls = walls[:0]
		for _, tr := range recs {
			sc.Wall += tr.wall
			sc.Wait += tr.wait
			sc.Cross += tr.cross
			sc.Inj += tr.inj
			walls = append(walls, tr.wall)
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		idx := (99*len(walls) + 99) / 100 // ⌈0.99·n⌉
		if idx > len(walls) {
			idx = len(walls)
		}
		p99 := walls[idx-1]
		for _, tr := range recs {
			if tr.wall >= p99 {
				sc.TailTasks++
				sc.TailWall += tr.wall
				sc.TailWait += tr.wait
				sc.TailCross += tr.cross
				sc.TailInj += tr.inj
			}
		}
	}
	if sc.TailWall > 0 {
		sc.Value = float64(sc.TailCross) / float64(sc.TailWall)
	}
	sc.SharedFamilies, sc.TouchedFamilies = r.SharedSurface()
	return sc
}

// SharedSurface returns (shared, touched): how many lock families contain
// at least one scope acquired by two distinct tenants, and how many were
// acquired at all — the "Locked In, Leaked Out" shared-lock surface count.
func (r *Recorder) SharedSurface() (shared, touched int) {
	famTouched := map[string]bool{}
	famShared := map[string]bool{}
	for _, name := range r.order {
		s := r.scopes[name]
		if s.acquires == 0 {
			continue
		}
		if !famTouched[s.family] {
			famTouched[s.family] = true
			touched++
		}
		if s.multi && !famShared[s.family] {
			famShared[s.family] = true
			shared++
		}
	}
	return shared, touched
}

// FamilyAgg is one lock family's pooled cross-tenant accounting.
type FamilyAgg struct {
	Family string
	// Wait/Cross/Inj pool the per-waiter vectors over every scope of the
	// family; Hold pools holder time.
	Wait, Cross, Inj, Hold sim.Time
	Acquires, Contended    uint64
	// Waiters and Holders count distinct tenants with nonzero cross wait
	// or hold in the family; SharedScopes counts the family's scopes
	// acquired by ≥2 tenants (0 = the family leaks nothing by surface).
	Waiters, Holders int
	SharedScopes     int
	// Top cross-tenant edge of the family's wait matrix: waiter tenant
	// From lost Edge of wait to holder tenant To (proportional
	// attribution; see Matrix). From/To are kernel.NoTenant when the family
	// has no cross wait.
	From, To int
	Edge     sim.Time
}

// Families aggregates every touched scope by family, sorted by cross wait
// descending (ties by name) — the "top leaking locks" ranking.
func (r *Recorder) Families() []FamilyAgg {
	waiters := map[string]map[int]bool{}
	holders := map[string]map[int]bool{}
	byFam := map[string]*FamilyAgg{}
	var order []string
	for _, name := range r.order {
		s := r.scopes[name]
		if s.acquires == 0 {
			continue
		}
		fa, ok := byFam[s.family]
		if !ok {
			fa = &FamilyAgg{Family: s.family, From: kernel.NoTenant, To: kernel.NoTenant}
			byFam[s.family] = fa
			waiters[s.family] = map[int]bool{}
			holders[s.family] = map[int]bool{}
			order = append(order, s.family)
		}
		fa.Acquires += s.acquires
		fa.Contended += s.contended
		fa.Hold += s.totalHold
		if s.multi {
			fa.SharedScopes++
		}
		for t := 0; t < len(s.wait); t++ {
			fa.Wait += s.wait[t]
			fa.Cross += s.cross[t]
			fa.Inj += s.inj[t]
			if s.cross[t] > 0 {
				waiters[s.family][t] = true
			}
			if s.hold[t] > 0 {
				holders[s.family][t] = true
			}
		}
		// Track the worst matrix edge scope by scope (edges never cross
		// scopes: a waiter in vm0 cannot have queued behind vm1's holds).
		from, to, edge := s.topEdge()
		if edge > fa.Edge {
			fa.From, fa.To, fa.Edge = from, to, edge
		}
	}
	out := make([]FamilyAgg, 0, len(order))
	for _, f := range order {
		fa := byFam[f]
		fa.Waiters = len(waiters[f])
		fa.Holders = len(holders[f])
		out = append(out, *fa)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cross != out[j].Cross {
			return out[i].Cross > out[j].Cross
		}
		return out[i].Family < out[j].Family
	})
	return out
}

// topEdge returns the scope's largest proportional cross-wait edge.
func (s *Scope) topEdge() (from, to int, edge sim.Time) {
	from, to = kernel.NoTenant, kernel.NoTenant
	if s.totalHold == 0 {
		return
	}
	for i := 0; i < len(s.cross); i++ {
		ci := s.cross[i]
		if ci == 0 {
			continue
		}
		others := s.totalHold - s.hold[i]
		if others <= 0 {
			continue
		}
		for j := 0; j < len(s.hold); j++ {
			if j == i || s.hold[j] == 0 {
				continue
			}
			e := sim.Time(float64(ci) * float64(s.hold[j]) / float64(others))
			if e > edge {
				from, to, edge = i, j, e
			}
		}
	}
	return
}

// Matrix returns the family's tenant×tenant cross-wait matrix:
// M[i][j] is waiter tenant i's cross wait attributed to holder tenant j,
// distributed per scope proportionally to the holders' cumulative hold
// times (excluding i's own — self-caused wait is impossible under the
// one-task-per-tenant model, so the diagonal is zero). Row sums equal the
// family's per-waiter cross wait up to integer truncation. Nil if the
// family saw no contention.
func (r *Recorder) Matrix(family string) [][]sim.Time {
	var m [][]sim.Time
	for _, name := range r.order {
		s := r.scopes[name]
		if s.family != family || s.contended == 0 || s.totalHold == 0 {
			continue
		}
		if m == nil {
			m = make([][]sim.Time, r.numTenants)
			for i := range m {
				m[i] = make([]sim.Time, r.numTenants)
			}
		}
		for i := 0; i < len(s.cross); i++ {
			ci := s.cross[i]
			if ci == 0 {
				continue
			}
			others := s.totalHold - s.hold[i]
			if others <= 0 {
				continue
			}
			for j := 0; j < len(s.hold); j++ {
				if j == i || s.hold[j] == 0 {
					continue
				}
				m[i][j] += sim.Time(float64(ci) * float64(s.hold[j]) / float64(others))
			}
		}
	}
	return m
}
