package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/runner"
	"ksa/internal/stats"
	"ksa/internal/varbench"
)

// InterferenceRow is one environment's tail response to a fixed noise plan:
// pooled call latencies (µs) without and with injection, and the
// amplification ratios faulted/baseline per metric.
type InterferenceRow struct {
	Env      EnvSpec
	BaseP50  float64
	BaseP99  float64
	BaseMax  float64
	FaultP50 float64
	FaultP99 float64
	FaultMax float64
	AmpP50   float64
	AmpP99   float64
	AmpMax   float64
}

// InterferenceResult is the interference ablation: the same noise plan
// dosed across surface-area partitions.
type InterferenceResult struct {
	Plan string
	Rows []InterferenceRow
	Par  runner.Metrics
}

// interferenceEnvs is the sweep grid: every Table 1 KVM partition count
// (the surface-area story) plus containers at both extremes (the
// "containers do not help the worst case" contrast).
func interferenceEnvs() []EnvSpec {
	var envs []EnvSpec
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		envs = append(envs, EnvSpec{Kind: platform.KindVMs, Units: n})
	}
	for _, n := range []int{1, 8, 64} {
		envs = append(envs, EnvSpec{Kind: platform.KindContainers, Units: n})
	}
	return envs
}

// pooledLatencies pools every call site's recorded latencies into one
// sample (µs). Sketch-backed sites merge by integer count addition into
// one window sized to cover them all, so the pool is identical for any
// site order; exact-backed sites replay their sorted values.
func pooledLatencies(r *varbench.Result) *stats.Sample {
	return stats.Pool(len(r.Sites), func(i int) *stats.Sample { return r.Sites[i].Sample })
}

// RunInterference doses one noise plan across the surface-area grid. Each
// cell runs the corpus twice on identically seeded environments — once
// clean, once with the plan attached — so the amplification ratios are
// causally controlled: the only difference between the paired runs is the
// injected interference. Cells fan out across Scale.Parallel workers with
// per-key derived seeds; results are bit-identical at any worker count.
// Cancelled cells drain with their pairs cached.
func RunInterference(ctx context.Context, sc Scale, plan fault.Plan) (InterferenceResult, error) {
	if err := plan.Validate(); err != nil {
		return InterferenceResult{}, err
	}
	c, _ := sc.GenerateCorpus()
	digest := sc.corpusDigest(c)
	envs := interferenceEnvs()
	machine := platform.PaperMachine

	// hits[2i] and hits[2i+1] are row i's clean and dosed lookups.
	hits := make([]bool, 2*len(envs))
	var jobs []runner.Job[InterferenceRow]
	for i, env := range envs {
		// The job key — and so the cell's derived seed — is deliberately
		// plan-free: the same environment always simulates under the same
		// seed, so its clean baseline is one cache entry shared by every
		// plan ever dosed over the grid. The plans themselves stay distinct
		// in the cache through the fault signature in the value key.
		jobs = append(jobs, runner.Job[InterferenceRow]{
			Key: fmt.Sprintf("interference/%s", env),
			Run: func(seed uint64) InterferenceRow {
				// The clean and dosed halves of the pair are cached as
				// separate entries (distinct fault signatures), so dosing a
				// different plan over the same grid reuses every baseline.
				run := func(half int, p *fault.Plan) *varbench.Result {
					opts := sc.vbOptions()
					opts.Seed = seed
					opts.Faults = p
					res, hit := sc.cachedCell(env, machine, c, digest, opts)
					hits[2*i+half] = hit
					return res
				}
				base := pooledLatencies(run(0, nil))
				pool := pooledLatencies(run(1, &plan))
				row := InterferenceRow{
					Env:      env,
					BaseP50:  base.Median(),
					BaseP99:  base.P99(),
					BaseMax:  base.Max(),
					FaultP50: pool.Median(),
					FaultP99: pool.P99(),
					FaultMax: pool.Max(),
				}
				if row.BaseP50 > 0 {
					row.AmpP50 = row.FaultP50 / row.BaseP50
				}
				if row.BaseP99 > 0 {
					row.AmpP99 = row.FaultP99 / row.BaseP99
				}
				if row.BaseMax > 0 {
					row.AmpMax = row.FaultMax / row.BaseMax
				}
				return row
			},
		})
	}
	rows, m, err := sweepCells(ctx, sc, jobs)
	if sc.Cache != nil {
		countCache(&m, hits[:2*m.Completed])
	}
	return InterferenceResult{Plan: plan.Name, Rows: rows[:m.Completed], Par: m}, err
}

// Fanout returns the metrics of the fan-out the result's cells ran as,
// cache counts included.
func (r InterferenceResult) Fanout() runner.Metrics { return r.Par }

// Render formats the ablation table.
func (r InterferenceResult) Render() string {
	t := &report.Table{
		Title: fmt.Sprintf("Interference ablation: plan %q dosed across surface-area partitions\n"+
			"(pooled call latency µs; amp = faulted/baseline, same seed)", r.Plan),
		Headers: []string{"environment", "base p50", "base p99", "base max",
			"fault p50", "fault p99", "fault max", "amp p50", "amp p99", "amp max"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	a := func(v float64) string { return fmt.Sprintf("%.2fx", v) }
	for _, row := range r.Rows {
		t.AddRow(row.Env.String(),
			f(row.BaseP50), f(row.BaseP99), f(row.BaseMax),
			f(row.FaultP50), f(row.FaultP99), f(row.FaultMax),
			a(row.AmpP50), a(row.AmpP99), a(row.AmpMax))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	return sb.String()
}

// CSV renders the result as machine-readable rows.
func (r InterferenceResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("plan,env,base_p50_us,base_p99_us,base_max_us,fault_p50_us,fault_p99_us,fault_max_us,amp_p50,amp_p99,amp_max\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f,%.4f\n",
			r.Plan, row.Env,
			row.BaseP50, row.BaseP99, row.BaseMax,
			row.FaultP50, row.FaultP99, row.FaultMax,
			row.AmpP50, row.AmpP99, row.AmpMax)
	}
	return sb.String()
}
