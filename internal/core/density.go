package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/density"
	"ksa/internal/report"
	"ksa/internal/runner"
	"ksa/internal/syscalls"
)

// ---------------------------------------------------------------------------
// Extension: high-density serverless tenancy

// DensityRow is one (surface, tenant-count) cell's summary: end-to-end
// tenant tails, pooled call tails, per-category p99s, and the cell's
// simulated makespan and event count.
type DensityRow struct {
	Surface    string
	Tenants    int
	Requests   int
	Calls      uint64
	Events     uint64
	MakespanMs float64
	QueueP99   float64 // µs
	LifeP50    float64 // µs
	LifeP99    float64 // µs
	CallP50    float64 // µs
	CallP99    float64 // µs
	CallMax    float64 // µs
	CatP99     []float64
}

// DensityResult is the high-density serverless sweep: every surface at
// every tenant count.
type DensityResult struct {
	Rows []DensityRow
}

// densityTenants applies the per-scale default grid.
func densityTenants(sc Scale) []int {
	if len(sc.DensityTenants) > 0 {
		return sc.DensityTenants
	}
	return DefaultScale().DensityTenants
}

// RunDensity sweeps the high-density serverless scenario: a Poisson stream
// of ephemeral tenants cold-starting on each isolation surface, at each
// tenant count. Cells fan out across Scale.Parallel workers with per-key
// derived seeds, so the sweep is bit-identical at any worker count.
func RunDensity(ctx context.Context, sc Scale) (DensityResult, error) {
	tenants := densityTenants(sc)
	surfaces := density.Surfaces
	rows, _, err := mapCells(ctx, sc, len(surfaces)*len(tenants), func(i int) DensityRow {
		surf, n := surfaces[i/len(tenants)], tenants[i%len(tenants)]
		key := fmt.Sprintf("density/%s/%d", surf, n)
		r := density.Run(density.Options{
			Surface:           surf,
			Tenants:           n,
			RequestsPerTenant: sc.RequestsPerTenant,
			Seed:              runner.DeriveSeed(sc.Seed, key),
			ExactStats:        sc.ExactStats,
		})
		row := DensityRow{
			Surface:    surf.String(),
			Tenants:    n,
			Requests:   r.Requests,
			Calls:      r.Calls,
			Events:     r.Events,
			MakespanMs: r.Makespan.Millis(),
			QueueP99:   r.Queue.P99(),
			LifeP50:    r.Lifetime.Median(),
			LifeP99:    r.Lifetime.P99(),
			CallP50:    r.All.Median(),
			CallP99:    r.All.P99(),
			CallMax:    r.All.Max(),
		}
		for _, s := range r.Category {
			p99 := 0.0
			if s.Len() > 0 {
				p99 = s.P99()
			}
			row.CatP99 = append(row.CatP99, p99)
		}
		return row
	})
	if err != nil {
		return DensityResult{}, err
	}
	return DensityResult{Rows: rows}, nil
}

// Render formats the density sweep as one table per axis: tenant-experience
// tails and per-category call tails.
func (r DensityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: high-density serverless tenancy (Poisson cold-start churn)\n\n")
	t := &report.Table{
		Title: "Tenant experience (µs) and cell size per surface × tenant count",
		Headers: []string{"surface", "tenants", "queue p99", "life p50", "life p99",
			"call p50", "call p99", "call max", "makespan ms", "events"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	for _, row := range r.Rows {
		t.AddRow(row.Surface, fmt.Sprintf("%d", row.Tenants),
			f(row.QueueP99), f(row.LifeP50), f(row.LifeP99),
			fmt.Sprintf("%.3f", row.CallP50), f(row.CallP99), f(row.CallMax),
			f(row.MakespanMs), fmt.Sprintf("%d", row.Events))
	}
	sb.WriteString(t.String())
	sb.WriteByte('\n')
	ct := &report.Table{
		Title:   "Per-category call p99 (µs); ipc is outside the cold-start burst",
		Headers: []string{"surface", "tenants"},
	}
	for _, cn := range syscalls.CategoryNames {
		ct.Headers = append(ct.Headers, cn.Name)
	}
	for _, row := range r.Rows {
		cells := []string{row.Surface, fmt.Sprintf("%d", row.Tenants)}
		for _, v := range row.CatP99 {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		ct.AddRow(cells...)
	}
	sb.WriteString(ct.String())
	return sb.String()
}

// CSV renders the sweep as machine-readable rows.
func (r DensityResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("surface,tenants,requests,calls,events,makespan_ms,queue_p99_us,life_p50_us,life_p99_us,call_p50_us,call_p99_us,call_max_us")
	for _, cn := range syscalls.CategoryNames {
		sb.WriteString(",p99_" + cn.Name + "_us")
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f",
			row.Surface, row.Tenants, row.Requests, row.Calls, row.Events,
			row.MakespanMs, row.QueueP99, row.LifeP50, row.LifeP99,
			row.CallP50, row.CallP99, row.CallMax)
		for _, v := range row.CatP99 {
			fmt.Fprintf(&sb, ",%.3f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
