// Package core orchestrates the paper's experiments: one typed runner per
// table and figure, built on the corpus generator, the varbench harness,
// the environment models, and the application workloads. This is the layer
// the cmd/ksaexp tool, the examples, and the benchmark harness call into.
package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/corpus"
	"ksa/internal/fuzz"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/resultcache"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// Scale controls experiment sizes. The paper's full scale (27k-call corpus,
// 100 iterations, 3-minute servers, 50 cluster iterations) is unnecessary
// for the distributions to converge in the simulator; DefaultScale is
// calibrated to finish each experiment in seconds-to-minutes while keeping
// the shapes stable. QuickScale is for tests and smoke runs.
type Scale struct {
	Seed uint64

	// Parallel bounds the worker threads the experiment runners fan
	// independent simulations across (0 = GOMAXPROCS). Every simulation
	// derives its randomness from the Seed and its own identity, never from
	// a shared stream, so any worker count produces bit-identical results —
	// Parallel only changes wall-clock time.
	Parallel int

	// Cache, when non-nil, memoizes every untraced varbench and cluster
	// cell in the content-addressed result store: workers consult it before
	// simulating and write through after, which makes sweeps resumable
	// (rerunning an interrupted grid recomputes only the missing cells) and
	// cross-invocation incremental (changing one key component reuses every
	// cell it does not invalidate). Cached and uncached runs are
	// bit-identical — the cache stores the canonical encoding of results
	// the determinism contract already fixes.
	Cache *resultcache.Store
	// CacheVerify recomputes every cache hit and panics unless the fresh
	// encoding is byte-equal to the stored entry — a standing bit-identity
	// audit (the -cache-verify flag).
	CacheVerify bool

	// Exec, when non-nil, is the shared pool every fan-out at this scale
	// runs its cells on, so many concurrent experiments multiplex onto one
	// fixed worker set (the daemon's mode). Nil gives each fan-out a pool
	// of Parallel workers, capped at its cell count, that lives for that
	// fan-out alone. Pools never change results: cells stay bit-identical
	// regardless of where or in what order they run.
	Exec *runner.Pool
	// Priority orders this scale's cells against other work on a shared
	// pool (higher first).
	Priority int

	// Corpus generation.
	CorpusPrograms int

	// varbench runs (Table 2, Figure 2, Table 3).
	Iterations int
	Warmup     int

	// Single-node tailbench (Figure 3).
	ServerWarmup  sim.Time
	ServerMeasure sim.Time

	// Cluster (Figure 4).
	Nodes             int
	ClusterIterations int
	RequestsPerIter   int

	// ExactStats selects the retain-every-observation sample backend for
	// varbench runs instead of the default bounded-memory quantile sketch
	// (the -exact-stats flag). Part of the cache key via the options
	// fingerprint.
	ExactStats bool

	// High-density serverless scenario (ksaexp -exp density).
	// DensityTenants lists the ephemeral-tenant counts to sweep; nil uses
	// the per-scale default grid. RequestsPerTenant is how many cold-start
	// program executions each tenant replays after its kernel boots.
	DensityTenants    []int
	RequestsPerTenant int
}

// DefaultScale returns the standard experiment scale.
func DefaultScale() Scale {
	return Scale{
		Seed:              42,
		CorpusPrograms:    80,
		Iterations:        20,
		Warmup:            2,
		ServerWarmup:      300 * sim.Millisecond,
		ServerMeasure:     1500 * sim.Millisecond,
		Nodes:             64,
		ClusterIterations: 6,
		RequestsPerIter:   150,
		DensityTenants:    []int{1000, 4000, 10000},
		RequestsPerTenant: 3,
	}
}

// QuickScale returns a much smaller configuration for tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		Seed:              42,
		CorpusPrograms:    15,
		Iterations:        4,
		Warmup:            1,
		ServerWarmup:      50 * sim.Millisecond,
		ServerMeasure:     250 * sim.Millisecond,
		Nodes:             8,
		ClusterIterations: 2,
		RequestsPerIter:   40,
		DensityTenants:    []int{200, 500},
		RequestsPerTenant: 2,
	}
}

// ScaleNamed resolves a scale preset by name — "" or "default", or
// "quick" — with seed overriding the preset's root seed when nonzero.
func ScaleNamed(name string, seed uint64) (Scale, error) {
	var sc Scale
	switch name {
	case "", "default":
		sc = DefaultScale()
	case "quick":
		sc = QuickScale()
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (want default or quick)", name)
	}
	if seed != 0 {
		sc.Seed = seed
	}
	return sc, nil
}

// GenerateCorpus runs the coverage-guided generator at this scale.
func (sc Scale) GenerateCorpus() (*corpus.Corpus, fuzz.Stats) {
	opts := fuzz.NewOptions(sc.Seed)
	opts.TargetPrograms = sc.CorpusPrograms
	return fuzz.Generate(opts)
}

// profile derives c's workload profile, the input specialized kernels
// are generated from. Its seed derives from a fixed key, not from any
// cell, so every experiment and execution mode (serial, parallel, daemon,
// distributed) that profiles the same corpus deploys the same kernels and
// shares their cache entries.
func (sc Scale) profile(c *corpus.Corpus) *specialize.Profile {
	return specialize.ProfileCorpus(c, syscalls.Default(), runner.DeriveSeed(sc.Seed, "specialize/profile"), 0)
}

func (sc Scale) vbOptions() varbench.Options {
	return varbench.Options{Iterations: sc.Iterations, Warmup: sc.Warmup, Seed: sc.Seed,
		ExactStats: sc.ExactStats}
}

// pool returns the pool a fan-out of n cells runs on and the function
// that releases it: the shared Exec pool, or a pool of Parallel workers,
// capped at n, that lives for this fan-out.
func (sc Scale) pool(n int) (*runner.Pool, func()) {
	if sc.Exec != nil {
		return sc.Exec, func() {}
	}
	p := runner.NewPool(max(1, min(runner.Workers(sc.Parallel), n)))
	return p, p.Close
}

// mapCells runs fn over n cells on the scale's pool at its priority and
// returns the results in cell order (runner.MapOn).
func mapCells[T any](ctx context.Context, sc Scale, n int, fn func(i int) T) ([]T, runner.Metrics, error) {
	pool, release := sc.pool(n)
	defer release()
	return runner.MapOn(ctx, pool, sc.Priority, n, fn)
}

// sweepCells runs keyed jobs on the scale's pool at its priority, each
// seeded from its key and the scale's root seed (runner.SweepOn).
func sweepCells[T any](ctx context.Context, sc Scale, jobs []runner.Job[T]) ([]T, runner.Metrics, error) {
	pool, release := sc.pool(len(jobs))
	defer release()
	return runner.SweepOn(ctx, pool, sc.Priority, sc.Seed, jobs)
}

// ---------------------------------------------------------------------------
// Table 1

// VMConfigTable renders Table 1: the VM configurations that partition the
// evaluation machine.
func VMConfigTable() *report.Table {
	rows := platform.VMConfigTable(platform.PaperMachine)
	t := &report.Table{
		Title:   "Table 1: VM configurations (64 cores / 32 GB virtualized in all cases)",
		Headers: []string{"# VMs", "# Cores/VM", "GB RAM/VM"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.VMs), fmt.Sprintf("%d", r.CoresPer),
			strings.TrimSuffix(fmt.Sprintf("%.1f", r.MemGBPer), ".0"))
	}
	return t
}

// ---------------------------------------------------------------------------
// Table 2

// Table2Result holds the three environments' decade breakdowns.
type Table2Result struct {
	CorpusCalls int
	Envs        []string // "native", "kvm-64x1", "docker-64x1"
	Median      []stats.Breakdown
	P99         []stats.Breakdown
	Max         []stats.Breakdown
}

// RunTable2 reproduces Table 2: median/p99/worst-case decade breakdowns of
// per-call-site latency on native Linux, 64 one-core KVM VMs, and 64
// one-core Docker containers. Once ctx is done no new cell starts,
// in-flight cells drain, and the partial result plus ctx's error come
// back; every experiment runner cancels this way.
func RunTable2(ctx context.Context, sc Scale) (Table2Result, error) {
	c, _ := sc.GenerateCorpus()
	digest := sc.corpusDigest(c)
	res := Table2Result{CorpusCalls: c.NumCalls()}
	envs := []EnvSpec{
		{Kind: platform.KindNative},
		{Kind: platform.KindVMs, Units: 64},
		{Kind: platform.KindContainers, Units: 64},
	}
	// The three environments are independent simulations; fan them out and
	// merge in environment order. Each cell is consulted against / written
	// through the result cache when Scale.Cache is set.
	runs, _, err := mapCells(ctx, sc, len(envs), func(i int) *varbench.Result {
		res, _ := sc.cachedCell(envs[i], platform.PaperMachine, c, digest, sc.vbOptions())
		return res
	})
	if err != nil {
		return res, err
	}
	for _, r := range runs {
		res.Envs = append(res.Envs, r.Env)
		res.Median = append(res.Median, r.MedianBreakdown())
		res.P99 = append(res.P99, r.P99Breakdown())
		res.Max = append(res.Max, r.MaxBreakdown())
	}
	return res, nil
}

// Render formats the result in the paper's Table 2 layout.
func (r Table2Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: system call performance breakdown (%d call sites; cumulative %% under each latency)\n\n", r.CorpusCalls)
	for _, part := range []struct {
		name string
		rows []stats.Breakdown
	}{{"Median", r.Median}, {"99th percentile", r.P99}, {"Worst case (max)", r.Max}} {
		t := report.BreakdownTable(part.name, "environment", r.Envs, part.rows)
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 2

// Figure2Result holds, per category, the violin summary of per-site p99s
// for each VM count.
type Figure2Result struct {
	VMCounts   []int
	Categories []string
	// Violins[cat][vmIdx]
	Violins [][]stats.Violin
}

// RunFigure2 reproduces Figure 2: per-category distributions of call-site
// 99th percentiles across the Table 1 VM configurations, filtered (like the
// paper) to call sites whose native median is at least 10µs.
func RunFigure2(ctx context.Context, sc Scale) (Figure2Result, error) {
	c, _ := sc.GenerateCorpus()
	digest := sc.corpusDigest(c)
	opts := sc.vbOptions()

	// The native run (which supplies the paper's >= 10µs site filter) and
	// the seven VM-count runs are all independent; only the filtering below
	// needs the native result, so all eight runs fan out together. The
	// native and kvm-64 cells address the same cache entries as Table 2's —
	// cells are keyed by their inputs, not by the experiment asking.
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	runs, _, err := mapCells(ctx, sc, 1+len(counts), func(i int) *varbench.Result {
		spec := EnvSpec{Kind: platform.KindNative}
		if i > 0 {
			spec = EnvSpec{Kind: platform.KindVMs, Units: counts[i-1]}
		}
		res, _ := sc.cachedCell(spec, platform.PaperMachine, c, digest, opts)
		return res
	})
	if err != nil {
		return Figure2Result{VMCounts: counts}, err
	}
	nat, results := runs[0], runs[1:]
	include := func(s varbench.Site) bool {
		smp := nat.SiteSample(s)
		return smp != nil && smp.Len() > 0 && smp.Median() >= 10
	}

	out := Figure2Result{VMCounts: counts}
	for _, cn := range syscalls.CategoryNames {
		out.Categories = append(out.Categories, cn.Name)
		row := make([]stats.Violin, len(counts))
		for i := range counts {
			s := results[i].CategoryP99s(cn.Cat, include)
			if s.Len() > 0 {
				row[i] = stats.ViolinOf(s, 16)
			}
		}
		out.Violins = append(out.Violins, row)
	}
	return out, nil
}

// Render formats the result as one violin table per category.
func (r Figure2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: per-category 99th-percentile distributions vs VM count\n")
	sb.WriteString("(sites with native median >= 10µs; kernel surface area shrinks left to right)\n\n")
	labels := make([]string, len(r.VMCounts))
	for i, n := range r.VMCounts {
		labels[i] = fmt.Sprintf("%d VMs", n)
	}
	for ci, cat := range r.Categories {
		t := report.ViolinTable(fmt.Sprintf("(%c) %s", 'a'+ci, cat), "config", labels, r.Violins[ci])
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 3

// Table3Result holds worst-case breakdowns per container count.
type Table3Result struct {
	Counts []int
	Max    []stats.Breakdown
}

// RunTable3 reproduces Table 3: worst-case latency breakdowns on Docker
// with 1 to 64 containers.
func RunTable3(ctx context.Context, sc Scale) (Table3Result, error) {
	c, _ := sc.GenerateCorpus()
	digest := sc.corpusDigest(c)
	res := Table3Result{}
	for n := 1; n <= 64; n *= 2 {
		res.Counts = append(res.Counts, n)
	}
	maxes, _, err := mapCells(ctx, sc, len(res.Counts), func(i int) stats.Breakdown {
		spec := EnvSpec{Kind: platform.KindContainers, Units: res.Counts[i]}
		r, _ := sc.cachedCell(spec, platform.PaperMachine, c, digest, sc.vbOptions())
		return r.MaxBreakdown()
	})
	if err != nil {
		return res, err
	}
	res.Max = maxes
	return res, nil
}

// Render formats the result in the paper's Table 3 layout.
func (r Table3Result) Render() string {
	labels := make([]string, len(r.Counts))
	for i, n := range r.Counts {
		labels[i] = fmt.Sprintf("%d", n)
	}
	t := report.BreakdownTable(
		"Table 3: worst-case (max) system call breakdown vs container count",
		"# ctnrs", labels, r.Max)
	return t.String()
}
