package core

import (
	"context"
	"fmt"
	"math"

	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/rng"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// EnvSpec names one environment of a sweep: an isolation substrate and its
// unit count (VMs/containers partitioning the machine; ignored for
// native).
type EnvSpec struct {
	Kind  platform.EnvKind
	Units int
	// Profile, for KindSpecialized, is the workload profile the per-tenant
	// kernels are generated from. PlanSweep fills it (profiling the sweep's
	// own corpus) when the caller leaves it nil; its Sig() joins the cell's
	// cache key, so specialized results never collide with full-surface
	// entries or with kernels generated from a different profile. Nil at
	// build time deploys full-surface kernels (pure MultiK partitioning).
	// It does not participate in String(), which stays the stable job-key
	// component.
	Profile *specialize.Profile
}

// String renders the spec as the stable job-key component, e.g. "native",
// "kvm-8", "docker-64".
func (e EnvSpec) String() string {
	if e.Kind == platform.KindNative {
		return e.Kind.String()
	}
	return fmt.Sprintf("%s-%d", e.Kind, e.Units)
}

// Check reports whether the spec can be built on m: the machine needs at
// least one core and a positive, finite amount of memory, VM-style
// partitions (kvm, lightvm, specialized) must divide its cores evenly, and
// containers need at least one unit. A spec that fails this check makes
// Build panic or yields results for a machine that cannot exist, so every
// boundary that accepts specs from outside (flags, HTTP bodies) checks
// them first.
func (e EnvSpec) Check(m platform.Machine) error {
	if m.Cores < 1 {
		return fmt.Errorf("machine has %d cores, want at least 1", m.Cores)
	}
	if !(m.MemGB > 0) || math.IsInf(m.MemGB, 1) {
		return fmt.Errorf("machine has %g GB of memory, want a positive finite amount", m.MemGB)
	}
	switch e.Kind {
	case platform.KindVMs, platform.KindLightVMs, platform.KindSpecialized:
		if e.Units < 1 || m.Cores%e.Units != 0 {
			return fmt.Errorf("%s: %d units do not evenly partition %d cores", e, e.Units, m.Cores)
		}
	case platform.KindContainers:
		if e.Units < 1 {
			return fmt.Errorf("%s: want at least 1 container", e)
		}
	}
	return nil
}

// Build constructs the environment on eng, drawing all of its construction
// randomness from seed. The spec must pass Check(m).
func (e EnvSpec) Build(eng *sim.Engine, m platform.Machine, seed uint64) *platform.Environment {
	src := rng.New(seed)
	switch e.Kind {
	case platform.KindVMs:
		return platform.VMs(eng, m, e.Units, src)
	case platform.KindLightVMs:
		return platform.LightVMs(eng, m, e.Units, src)
	case platform.KindContainers:
		return platform.Containers(eng, m, e.Units, src)
	case platform.KindSpecialized:
		var red *kernel.Reduction
		if e.Profile != nil {
			red = specialize.Specialize(e.Profile, syscalls.Default())
		}
		return platform.Specialized(eng, m, e.Units, src, red)
	default:
		return platform.Native(eng, m, src)
	}
}

// SweepOptions configures RunSweep: a dense environment × corpus × trial
// grid of independent varbench runs.
type SweepOptions struct {
	// Scale supplies the corpus (unless Corpus overrides it), the harness
	// iteration counts, the root seed, and the Parallel worker bound.
	Scale Scale
	// Machine is the host each environment partitions (default: the
	// paper's 64-core/32GB box).
	Machine platform.Machine
	// Envs are the environments to sweep.
	Envs []EnvSpec
	// Trials is the number of independent repetitions per environment
	// (default 1). Trial t of environment e runs with the seed derived
	// from the job key "<env>/trial=<t>" — never from a shared stream.
	Trials int
	// Trace attaches a tracer to every kernel of every run, so each
	// SweepRun carries blame records.
	Trace bool
	// Corpus, when non-nil, replaces the Scale-generated corpus (e.g. a
	// corpus file loaded by cmd/varbench).
	Corpus *corpus.Corpus
	// Faults, when non-nil, doses every run with the interference plan.
	// The plan's signature becomes part of each job key, so faulted and
	// fault-free sweeps of the same grid derive distinct seeds and can
	// coexist in one process without key collisions.
	Faults *fault.Plan

	// Progress, when non-nil, is called once per completed cell — from
	// worker goroutines, possibly several at once, so it must be safe for
	// concurrent use. It exists for observers (the daemon's event stream);
	// it must not mutate anything the sweep reads.
	Progress func(SweepProgress)
}

// SweepProgress describes one completed cell of a running sweep.
type SweepProgress struct {
	// Index/Total locate the cell in the job list (environment-major,
	// trial-minor).
	Index, Total int
	// Key is the cell's job key.
	Key string
	// CacheHit reports whether the cell was served from the result store
	// rather than simulated.
	CacheHit bool
	// Run is the completed cell itself.
	Run SweepRun
}

// SweepRun is one (environment, trial) cell of a sweep.
type SweepRun struct {
	Env   EnvSpec
	Trial int
	// FaultSig is the interference plan's signature when the sweep ran
	// under SweepOptions.Faults; empty otherwise.
	FaultSig string
	// Seed is the job's derived private seed.
	Seed uint64
	Res  *varbench.Result
}

// Key returns the cell's job key.
func (r SweepRun) Key() string {
	env := r.Env.String()
	if r.FaultSig != "" {
		env += "/fault=" + r.FaultSig
	}
	return runner.SweepKey(env, r.Trial)
}

// SweepResult holds a sweep's runs in job-key order (environment-major,
// trial-minor — never completion order) plus the fan-out metrics.
type SweepResult struct {
	Runs []SweepRun
	Par  runner.Metrics
}

// SweepCell is one enumerated cell of a sweep grid: its position, its
// job key, and its derived seed — everything that identifies the cell
// without running it. Cells enumerate environment-major, trial-minor, so
// slice order is job-key order (the canonical merge order).
type SweepCell struct {
	// Index is the cell's position in the grid enumeration.
	Index int
	// Env and Trial locate the cell in the grid.
	Env   EnvSpec
	Trial int
	// FaultSig is the sweep's interference-plan signature ("" clean).
	FaultSig string
	// JobKey is the cell's stable identity, e.g. "kvm-8/trial=2".
	JobKey string
	// Seed is the cell's private seed, derived from the root seed and
	// JobKey alone — never from position or worker.
	Seed uint64
}

// SweepPlan is a sweep grid resolved to its cells plus the shared inputs
// every cell needs (normalized options, corpus, corpus digest). Planning
// is deterministic; it exists so that the in-process sweep and the
// daemon's worker-mode cell endpoint run exactly the same cells with
// exactly the same keys, and the distributed coordinator enumerates them
// through the same SweepOptions.Cells — the bit-identity contract reduced
// to sharing one code path.
type SweepPlan struct {
	// Opts is the normalized sweep (machine and trials defaulted, corpus
	// filled in).
	Opts SweepOptions
	// Cells is the grid in job-key order.
	Cells []SweepCell
	// digest is the corpus cache digest ("" when the cache is off).
	digest string
}

// PlanSweep normalizes o and enumerates its grid.
func PlanSweep(o SweepOptions) SweepPlan {
	if o.Machine.Cores == 0 {
		o.Machine = platform.PaperMachine
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Corpus == nil {
		c, _ := o.Scale.GenerateCorpus()
		o.Corpus = c
	}
	// Specialized environments need the workload profile their per-tenant
	// kernels are generated from. Profile the sweep's own corpus once and
	// attach it to every specialized spec that arrived without one — on a
	// copy, so the caller's Envs slice is never mutated. The profiling seed
	// derives from a fixed key, not the cell grid, so every execution mode
	// (serial, parallel, daemon, distributed) generates the same profile and
	// therefore the same kernels and cache keys.
	for i, env := range o.Envs {
		if env.Kind == platform.KindSpecialized && env.Profile == nil {
			prof := specialize.ProfileCorpus(o.Corpus, syscalls.Default(),
				runner.DeriveSeed(o.Scale.Seed, "specialize/profile"), 0)
			envs := make([]EnvSpec, len(o.Envs))
			copy(envs, o.Envs)
			for j := i; j < len(envs); j++ {
				if envs[j].Kind == platform.KindSpecialized && envs[j].Profile == nil {
					envs[j].Profile = prof
				}
			}
			o.Envs = envs
			break
		}
	}
	p := SweepPlan{Opts: o, Cells: o.Cells()}
	if p.cache() != nil {
		p.digest = o.Scale.corpusDigest(o.Corpus)
	}
	return p
}

// Cells enumerates o's grid in job-key order (a Trials of zero or less
// counts as one) without planning it: no corpus is generated and no
// environment profiled, so a specialized cell's Env carries whatever
// Profile o gave it. PlanSweep enumerates through it, which is what lets a
// coordinator that only routes cells share the plan's keys and seeds.
func (o SweepOptions) Cells() []SweepCell {
	trials := max(o.Trials, 1)
	faultSig := faultSigOf(o.Faults)
	var cells []SweepCell
	for _, env := range o.Envs {
		envKey := env.String()
		if faultSig != "" {
			envKey += "/fault=" + faultSig
		}
		for t := 0; t < trials; t++ {
			jobKey := runner.SweepKey(envKey, t)
			cells = append(cells, SweepCell{
				Index: len(cells), Env: env, Trial: t, FaultSig: faultSig,
				JobKey: jobKey, Seed: runner.DeriveSeed(o.Scale.Seed, jobKey),
			})
		}
	}
	return cells
}

// options returns the harness options of the cell seeded with seed: the
// scale's iteration counts plus the sweep's tracer and fault plan.
func (p SweepPlan) options(seed uint64) varbench.Options {
	opts := p.Opts.Scale.vbOptions()
	opts.Seed = seed
	opts.Faults = p.Opts.Faults
	if p.Opts.Trace {
		opts.Trace = &trace.Options{}
	}
	return opts
}

// cache returns the store the plan's cells read and write: nil when the
// cache is off or the sweep is traced (see Scale.store).
func (p SweepPlan) cache() *resultcache.Store {
	return p.Opts.Scale.store(p.options(0))
}

// CacheKey returns the result-store key addressing one cell. The trial
// number is deliberately absent: the derived seed is the cell's entire
// randomness, so a cell is addressed by exactly the inputs that determine
// its bits.
func (p SweepPlan) CacheKey(c SweepCell) resultcache.Key {
	return varbenchKey(c.Env, p.Opts.Machine, p.options(c.Seed), p.digest)
}

// RunCell executes exactly one cell — through the cache when configured —
// and reports whether it was served from the store. This is the single
// cell code path shared by every execution mode: the serial baseline, the
// in-process parallel fan-out, the daemon's pool, and a remote worker
// answering a coordinator all call here, and it runs the cell through
// Scale.cachedCell like every other experiment cell, which is what makes
// their outputs bit-identical by construction.
func (p SweepPlan) RunCell(c SweepCell) (SweepRun, bool) {
	o := p.Opts
	res, hit := o.Scale.cachedCell(c.Env, o.Machine, o.Corpus, p.digest, p.options(c.Seed))
	run := SweepRun{Env: c.Env, Trial: c.Trial, FaultSig: c.FaultSig, Seed: c.Seed, Res: res}
	if o.Progress != nil {
		o.Progress(SweepProgress{
			Index: c.Index, Total: len(p.Cells), Key: c.JobKey, CacheHit: hit, Run: run,
		})
	}
	return run, hit
}

// Cached reports whether every cell already has an entry in the result
// store — the probe a service uses to answer a fully warmed sweep without
// occupying its shared pool. It checks existence only and moves no
// counter; a corrupt entry discovered later simply recomputes through
// RunCell. Always false for traced or uncached sweeps.
func (p SweepPlan) Cached() bool {
	st := p.cache()
	if st == nil {
		return false
	}
	for _, c := range p.Cells {
		if !st.Contains(p.CacheKey(c)) {
			return false
		}
	}
	return true
}

// Run executes the planned grid, fanning the independent simulations
// across the scale's pool. The output is bit-identical for every worker
// count: job order fixes the merge order and per-key seed derivation
// fixes each run's randomness.
//
// With Scale.Cache set (and Trace off — live tracers are not
// serializable), each cell consults the content-addressed store before
// simulating and writes through after, so an interrupted sweep resumes
// executing only the missing cells and a repeated sweep is served entirely
// from cache. Par's cache counts come from the cells' own hit flags.
//
// Once ctx is done no new cell starts (queued cells are abandoned
// promptly), in-flight cells drain to completion — and, with a cache, stay
// durable — and the truncated result comes back with ctx's error. Cells
// are claimed in job-key order, so the completed cells are exactly the
// prefix [0, Par.Completed) of the grid, each bit-identical to the same
// cell of an uninterrupted serial run; rerunning the sweep against the
// same cache resumes from there.
func (p SweepPlan) Run(ctx context.Context) (SweepResult, error) {
	hits := make([]bool, len(p.Cells))
	jobs := make([]runner.Job[SweepRun], len(p.Cells))
	for i, cell := range p.Cells {
		jobs[i] = runner.Job[SweepRun]{
			Key: cell.JobKey,
			Run: func(seed uint64) SweepRun {
				// seed == cell.Seed by construction: both are
				// DeriveSeed(root, JobKey). The plan's copy exists so remote
				// workers can verify it without re-deriving.
				run, hit := p.RunCell(cell)
				hits[i] = hit
				return run
			},
		}
	}
	runs, m, err := sweepCells(ctx, p.Opts.Scale, jobs)
	if p.cache() != nil {
		countCache(&m, hits[:m.Completed])
	}
	return SweepResult{Runs: runs[:m.Completed], Par: m}, err
}

// RunSweep plans the environment × trial grid and runs it:
// PlanSweep(o).Run(ctx).
func RunSweep(ctx context.Context, o SweepOptions) (SweepResult, error) {
	return PlanSweep(o).Run(ctx)
}
