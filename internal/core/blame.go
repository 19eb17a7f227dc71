package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/sim"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// BlameResult is a traced varbench run: the usual per-site latency
// distributions plus blame records and lockstat aggregates for every
// kernel of the environment.
type BlameResult struct {
	Env string
	Res *varbench.Result
}

// RunBlame deploys the corpus at this scale on env, built on the paper
// machine, with tracing enabled. threshold is the outlier wall-time (0 =
// the tracer's 1ms default). The traced run is one live cell on the
// scale's pool: tracers do not serialize, so it never touches the cache.
func RunBlame(ctx context.Context, sc Scale, env EnvSpec, threshold sim.Time) (BlameResult, error) {
	c, _ := sc.GenerateCorpus()
	opts := sc.vbOptions()
	opts.Trace = &trace.Options{Threshold: threshold}
	runs, _, err := mapCells(ctx, sc, 1, func(int) *varbench.Result {
		res, _ := sc.cachedCell(env, platform.PaperMachine, c, "", opts)
		return res
	})
	if err != nil {
		return BlameResult{}, err
	}
	return BlameResult{Env: runs[0].Env, Res: runs[0]}, nil
}

// Render formats the blame report with the top worst-case records.
func (r BlameResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Blame report: %s\n\n", r.Env)
	sb.WriteString(RenderBlame(r.Res, 10))
	return sb.String()
}

// CSV renders one row per (outlier, blame part).
func (r BlameResult) CSV() string {
	var sb strings.Builder
	trace.WriteBlameCSV(&sb, r.Env, r.Res.BlameRecords()) //nolint:errcheck // strings.Builder never fails
	return sb.String()
}

// RenderBlame formats a traced varbench result's blame report: tracer
// activity, the top-blamed shared structures, the worst individual
// records, and the pooled lockstat table. top bounds the records listed.
func RenderBlame(res *varbench.Result, top int) string {
	var sb strings.Builder
	if len(res.Tracers) == 0 {
		return "no tracers attached (run with Options.Trace set)\n"
	}
	var tasks, outliers uint64
	for _, tr := range res.Tracers {
		tasks += tr.Tasks()
		outliers += tr.Outliers()
	}
	fmt.Fprintf(&sb, "%d kernels traced: %d tasks, %d outliers >= %v\n\n",
		len(res.Tracers), tasks, outliers, res.Tracers[0].Options().Threshold)

	recs := res.BlameRecords()
	sb.WriteString(report.TopBlamedTable("top blamed structures (all outliers pooled)",
		trace.BlameRows(trace.TotalsOf(recs))).String())

	if top > len(recs) {
		top = len(recs)
	}
	if top > 0 {
		fmt.Fprintf(&sb, "\nworst %d of %d blame records:\n", top, len(recs))
		for i := 0; i < top; i++ {
			fmt.Fprintf(&sb, "  %s\n", recs[i].String())
		}
	}

	sb.WriteByte('\n')
	sb.WriteString(trace.LockTableOf("lockstat (all kernels pooled)",
		trace.MergeLockStats(res.Tracers)).String())
	return sb.String()
}
