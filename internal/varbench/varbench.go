// Package varbench is the measurement harness (§3.2 of the paper): it
// deploys the same system-call program on every core of an environment,
// inserts a global barrier before every program iteration so all cores
// invoke kernel services at the same instant, and collects per-call-site
// latency distributions.
//
// The barrier spans all cores of all kernels, mirroring varbench's use of
// MPI rather than a node-local runtime: VM boundaries do not weaken the
// synchronization, only the kernel state behind each core differs.
package varbench

import (
	"fmt"
	"sort"

	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/isolation"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
	"ksa/internal/trace"
)

// ExplicitZero requests a literal zero for an Options field whose zero
// value means "use the default": Iterations, BarrierHop, and
// ReleaseSkewMean. Any negative value works; the named constant documents
// intent.
const ExplicitZero = -1

// Options configures a harness run.
type Options struct {
	// Iterations is how many synchronized repetitions of each program run
	// (the paper uses 100). Zero means the default (30); a negative value
	// (conventionally ExplicitZero) means literally zero recorded
	// iterations — a warmup-only run.
	Iterations int
	// Warmup iterations are executed but not recorded (software caches and
	// noise streams reach steady state). Negative is normalized to zero.
	Warmup int
	// BarrierHop is the per-round latency of the global barrier (MPI over
	// the virtual network). Zero means the default (2µs); negative
	// (ExplicitZero) means an idealized free barrier.
	BarrierHop sim.Time
	// ReleaseSkewMean is the mean per-core barrier release skew
	// (exponential). Real barriers wake ranks microseconds apart; zero skew
	// would make every lock see worst-case simultaneous arrival on every
	// iteration. Zero means the default (8µs); negative (ExplicitZero)
	// means no skew — deliberate worst-case simultaneity.
	ReleaseSkewMean sim.Time
	// Seed perturbs the harness's own randomness (release skew).
	Seed uint64
	// Trace, when non-nil, attaches a tracer to every kernel in the
	// environment and labels each submitted task with its call site, so the
	// Result carries per-site blame records. Tracing is observational: the
	// measured latencies are bit-identical with Trace set or nil.
	Trace *trace.Options
	// Faults, when non-nil, attaches the interference plan to the
	// environment's kernels for the duration of the run. Injection
	// randomness derives from Seed, so the same (plan, seed) perturbs
	// identically run to run; injectors stop when the last core finishes
	// its schedule.
	Faults *fault.Plan
	// ExactStats selects the retain-every-observation sample backend
	// instead of the default bounded-memory quantile sketch. Memory then
	// grows linearly with recorded events, but quantiles are exact — the
	// oracle mode the sketch is property-tested against. Part of the
	// options fingerprint: exact and sketch runs never share cache
	// entries.
	ExactStats bool
	// Contention, when true, attaches one isolation.Recorder across every
	// kernel of the environment and tags each core's work with its tenant
	// identity (tenant = global core index), so the Result carries the
	// tenant×lock contention graph. Like Trace it is observational — the
	// measured latencies are bit-identical either way — and like Trace it
	// bypasses the result cache (a Result's live Recorder is not
	// serializable), so it is excluded from Fingerprint.
	Contention bool
}

// DefaultOptions returns the scaled-down defaults used throughout the
// repository: 30 recorded iterations after 2 warmups.
func DefaultOptions() Options {
	return Options{Iterations: 30, Warmup: 2, BarrierHop: 2 * sim.Microsecond,
		ReleaseSkewMean: 8 * sim.Microsecond}
}

func (o Options) withDefaults() Options {
	// Zero selects the default; negative (ExplicitZero) selects a literal
	// zero. This keeps the zero-value Options useful without making "I
	// really want 0" unexpressible.
	switch {
	case o.Iterations == 0:
		o.Iterations = 30
	case o.Iterations < 0:
		o.Iterations = 0
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	switch {
	case o.BarrierHop == 0:
		o.BarrierHop = 2 * sim.Microsecond
	case o.BarrierHop < 0:
		o.BarrierHop = 0
	}
	switch {
	case o.ReleaseSkewMean == 0:
		o.ReleaseSkewMean = 8 * sim.Microsecond
	case o.ReleaseSkewMean < 0:
		o.ReleaseSkewMean = 0
	}
	return o
}

// Fingerprint renders the result-shaping harness knobs canonically, with
// defaults applied — the options component of a result-cache key. Seed,
// Trace, Contention, and Faults are deliberately excluded: the seed is its
// own key component, tracing and contention recording are observational
// (and such runs bypass the cache — a Result's live Tracers and Recorder
// are not serializable), and the fault plan is keyed by its signature.
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	stats := "sketch"
	if o.ExactStats {
		stats = "exact"
	}
	return fmt.Sprintf("iters=%d warmup=%d hop=%d skew=%d stats=%s",
		o.Iterations, o.Warmup, int64(o.BarrierHop), int64(o.ReleaseSkewMean), stats)
}

// Site identifies one call site: a (program, call index) pair.
type Site struct {
	Program int
	Call    int
}

// SiteResult holds one call site's pooled latency sample across all cores
// and recorded iterations, in microseconds.
type SiteResult struct {
	Site    Site
	Syscall syscalls.ID
	Sample  *stats.Sample
}

// Result is the outcome of one harness run.
type Result struct {
	Env        string
	Cores      int
	Iterations int
	Sites      []SiteResult

	// Tracers holds one tracer per kernel of the environment when
	// Options.Trace was set; empty otherwise.
	Tracers []*trace.Tracer

	// Isolation is the environment-wide tenant×lock contention recorder
	// when Options.Contention was set; nil otherwise.
	Isolation *isolation.Recorder

	index     map[Site]int
	labelSite map[string]Site
}

// NewResult reassembles a Result from its serialized parts (the
// resultcache codec's constructor), rebuilding the site index. Decoded
// results carry no tracers and no label map: only untraced runs are
// cached.
func NewResult(env string, cores, iterations int, sites []SiteResult) *Result {
	r := &Result{
		Env: env, Cores: cores, Iterations: iterations, Sites: sites,
		index: make(map[Site]int, len(sites)),
	}
	for i, sr := range sites {
		r.index[sr.Site] = i
	}
	return r
}

// SiteSample returns the sample for a call site, or nil.
func (r *Result) SiteSample(s Site) *stats.Sample {
	if i, ok := r.index[s]; ok {
		return r.Sites[i].Sample
	}
	return nil
}

// SiteLabel is the task label format tracing uses, e.g. "p3/c7 fsync";
// blame records carry it so they can be mapped back to call sites.
func SiteLabel(prog, call int, name string) string {
	return fmt.Sprintf("p%d/c%d %s", prog, call, name)
}

// SiteOf maps a blame record's label back to its call site.
func (r *Result) SiteOf(rec *trace.BlameRecord) (Site, bool) {
	s, ok := r.labelSite[rec.Label]
	return s, ok
}

// BlameRecords pools the blame records of every traced kernel, worst wall
// time first (deterministic order; empty without Options.Trace).
func (r *Result) BlameRecords() []trace.BlameRecord {
	var out []trace.BlameRecord
	for _, tr := range r.Tracers {
		out = append(out, tr.Records()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// SiteBlame returns the blame records attributed to one call site, worst
// first.
func (r *Result) SiteBlame(s Site) []trace.BlameRecord {
	var out []trace.BlameRecord
	for _, rec := range r.BlameRecords() {
		if got, ok := r.labelSite[rec.Label]; ok && got == s {
			out = append(out, rec)
		}
	}
	return out
}

// BlameTotals aggregates blame causes across every traced kernel's
// records, sorted by total attributed time.
func (r *Result) BlameTotals() []trace.CauseTotal {
	return trace.TotalsOf(r.BlameRecords())
}

// Run executes the corpus on every core of the environment. Programs run
// one after another; before each iteration of each program, every core
// waits at a global barrier so invocations are synchronized. Run drives the
// environment's engine to completion and returns pooled results.
func Run(env *platform.Environment, c *corpus.Corpus, opts Options) *Result {
	opts = opts.withDefaults()
	nCores := env.NumCores()
	res := &Result{
		Env:        env.Name,
		Cores:      nCores,
		Iterations: opts.Iterations,
		index:      make(map[Site]int),
	}
	tab := syscalls.Default()
	if opts.Trace != nil {
		res.labelSite = make(map[string]Site)
		for _, k := range env.Kernels {
			tr := trace.New(*opts.Trace)
			k.Observe(tr)
			res.Tracers = append(res.Tracers, tr)
		}
	}
	if opts.Contention {
		res.Isolation = isolation.NewRecorder(nCores)
		for _, k := range env.Kernels {
			k.Observe(res.Isolation.KernelObserver(k))
		}
	}
	// Compile each program once; every core replays the compiled form on
	// every iteration. siteBase[p] is program p's first site index, so the
	// per-call record path below is plain arithmetic instead of a map
	// lookup (sites are appended program-major, call-minor).
	compiled := make([]*corpus.Compiled, len(c.Programs))
	siteBase := make([]int, len(c.Programs))
	for pi, p := range c.Programs {
		compiled[pi] = corpus.Compile(p, tab)
		siteBase[pi] = len(res.Sites)
		for ci, call := range p.Calls {
			s := Site{Program: pi, Call: ci}
			res.index[s] = len(res.Sites)
			smp := stats.NewSample(nCores * opts.Iterations)
			if opts.ExactStats {
				smp = stats.NewExactSample(nCores * opts.Iterations)
			}
			res.Sites = append(res.Sites, SiteResult{
				Site:    s,
				Syscall: call.Syscall,
				Sample:  smp,
			})
			if opts.Trace != nil {
				res.labelSite[SiteLabel(pi, ci, tab.Get(call.Syscall).Name)] = s
			}
		}
	}

	// Interference injection: armed before any work is submitted, stopped
	// when the last core finishes its schedule so the engine can drain.
	var faultRt *fault.Runtime
	if opts.Faults != nil {
		fsrc := rng.New(opts.Seed ^ 0xfa17).Split(1)
		faultRt = fault.Attach(env.Eng, fsrc, *opts.Faults, env.Kernels...)
	}
	coresLeft := nCores

	barrier := sim.NewBarrier(env.Eng, nCores, opts.BarrierHop)
	skewSrc := rng.New(opts.Seed ^ 0x5645454b)
	maxSkew := 8 * opts.ReleaseSkewMean
	barrier.Jitter = func() sim.Time {
		j := sim.Time(skewSrc.Exp(float64(opts.ReleaseSkewMean)))
		if j > maxSkew {
			j = maxSkew
		}
		return j
	}
	total := opts.Warmup + opts.Iterations

	// One persistent runner per core: the replay arenas and continuation
	// closures warm up once and are reused by every iteration. ResetProc
	// before each program run reproduces exactly the fresh-process state a
	// newly built runner would have, so results stay bit-identical.
	runners := make([]*corpus.Runner, nCores)
	for core := 0; core < nCores; core++ {
		ref := env.Core(core)
		runners[core] = corpus.NewRunner(env.Eng, ref.Kernel, ref.Core, tab)
		// The tenant behind a global core index is the same workload in
		// every environment — only the kernel boundary around it moves —
		// which is what makes isolation scores comparable across the sweep.
		runners[core].Tenant = core
	}

	// Each core walks the same schedule: for each program, for each
	// iteration: barrier; run program; continue. Barriers keep the cores in
	// lockstep, so a single (program, iteration) cursor per core suffices.
	var launch func(core, prog, iter int)
	launch = func(core, prog, iter int) {
		if prog >= len(c.Programs) {
			coresLeft--
			if coresLeft == 0 && faultRt != nil {
				faultRt.Stop()
			}
			return
		}
		if iter >= total {
			launch(core, prog+1, 0)
			return
		}
		barrier.Arrive(func() {
			r := runners[core]
			r.ResetProc()
			if opts.Trace != nil {
				pi := prog
				r.Label = func(call int, name string) string {
					return SiteLabel(pi, call, name)
				}
			}
			record := iter >= opts.Warmup
			base := siteBase[prog]
			r.RunCompiled(compiled[prog],
				func(i int, lat sim.Time) {
					if record {
						res.Sites[base+i].Sample.Add(lat.Micros())
					}
				},
				func() { launch(core, prog, iter+1) })
		})
	}
	for core := 0; core < nCores; core++ {
		launch(core, 0, 0)
	}
	env.Eng.Run()
	return res
}

// MedianBreakdown returns the Table 2-style decade breakdown of per-site
// median latencies.
func (r *Result) MedianBreakdown() stats.Breakdown {
	return r.breakdown(func(s *stats.Sample) float64 { return s.Median() })
}

// P99Breakdown returns the decade breakdown of per-site 99th percentiles.
func (r *Result) P99Breakdown() stats.Breakdown {
	return r.breakdown(func(s *stats.Sample) float64 { return s.P99() })
}

// MaxBreakdown returns the decade breakdown of per-site worst cases.
func (r *Result) MaxBreakdown() stats.Breakdown {
	return r.breakdown(func(s *stats.Sample) float64 { return s.Max() })
}

func (r *Result) breakdown(metric func(*stats.Sample) float64) stats.Breakdown {
	vals := make([]float64, 0, len(r.Sites))
	for _, sr := range r.Sites {
		if sr.Sample.Len() > 0 {
			vals = append(vals, metric(sr.Sample))
		}
	}
	return stats.BreakdownOf(vals)
}

// CategoryP99s pools, per category, the p99 of every call site in that
// category whose metric passes the filter; this feeds Figure 2's violins.
// minNativeMedian, if > 0, drops sites whose median (in THIS result) is
// below the threshold — the paper filters to medians ≥ 10µs measured on
// native Linux, so callers typically pass a site filter computed elsewhere.
func (r *Result) CategoryP99s(cat syscalls.Category, include func(Site) bool) *stats.Sample {
	tab := syscalls.Default()
	var proto *stats.Sample
	if len(r.Sites) > 0 {
		proto = r.Sites[0].Sample
	}
	out := stats.NewSampleLike(proto, 64)
	for _, sr := range r.Sites {
		if sr.Sample.Len() == 0 || !tab.Get(sr.Syscall).Cats.Has(cat) {
			continue
		}
		if include != nil && !include(sr.Site) {
			continue
		}
		out.Add(sr.Sample.P99())
	}
	return out
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("varbench[%s cores=%d iters=%d sites=%d]",
		r.Env, r.Cores, r.Iterations, len(r.Sites))
}
