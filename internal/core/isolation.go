package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/runner"
	"ksa/internal/specialize"
	"ksa/internal/varbench"
)

// ---------------------------------------------------------------------------
// Extension: tenant×lock contention graph and per-environment isolation score

// IsolationLeak is one lock family's cross-tenant leak in one environment —
// a row of the "top leaking locks" report.
type IsolationLeak struct {
	Family string
	// CrossUS is the family's total cross-tenant wait (µs) — the ranking
	// key; WaitUS/InjUS the full and injected wait it decomposes from;
	// HoldUS total holder time.
	CrossUS, WaitUS, InjUS, HoldUS float64
	// Waiters/Holders count distinct tenants on each side of the family's
	// wait matrix; SharedScopes its scopes acquired by ≥2 tenants.
	Waiters, Holders, SharedScopes int
	// From→To is the worst single matrix edge: waiter tenant From lost
	// EdgeUS µs to holder tenant To (proportional attribution).
	From, To int
	EdgeUS   float64
}

// IsolationRow is one environment's isolation summary.
type IsolationRow struct {
	Env EnvSpec
	// Score is the isolation score: the fraction of tail (per-tenant
	// p99-and-above) wall time caused by other tenants' lock holds. Lower
	// is better isolated; see docs/METRICS.md.
	Score float64
	// Tail set totals (µs) behind the score.
	TailTasks   int
	TailWallUS  float64
	TailCrossUS float64
	TailInjUS   float64
	// Whole-run totals (µs).
	WallUS, WaitUS, CrossUS, InjUS float64
	// SharedFamilies / TouchedFamilies is the shared-lock surface: families
	// with a scope acquired by ≥2 distinct tenants, over families acquired
	// at all.
	SharedFamilies, TouchedFamilies int
	// Leaks ranks the environment's worst cross-tenant lock families.
	Leaks []IsolationLeak
}

// IsolationResult is the isolation experiment: the same tenants scored
// across every surface-area partition.
type IsolationResult struct {
	Rows []IsolationRow
	Par  runner.Metrics
}

// maxLeakRows caps the per-environment top-leaking-locks listing.
const maxLeakRows = 5

// isolationEnvs is the score grid: the interference ablation's grid (each
// Table 1 KVM partition plus containers at both extremes) extended with 64
// specialized per-tenant kernels, so the score ranks all three isolation
// strategies the repo models. prof is the workload profile the specialized
// kernels are generated from.
func isolationEnvs(prof *specialize.Profile) []EnvSpec {
	envs := interferenceEnvs()
	return append(envs, EnvSpec{Kind: platform.KindSpecialized, Units: 64, Profile: prof})
}

// RunIsolation measures cross-tenant lock contention across the
// surface-area grid and derives each environment's isolation score. Cells
// fan out across Scale.Parallel workers with per-key derived seeds;
// results are bit-identical at any worker count. Cells always run live:
// cachedCell keeps contention-recording runs out of the result cache (the
// recorder is not serializable), exactly like traced runs.
func RunIsolation(ctx context.Context, sc Scale) (IsolationResult, error) {
	c, _ := sc.GenerateCorpus()
	prof := sc.profile(c)
	machine := platform.PaperMachine

	var jobs []runner.Job[IsolationRow]
	for _, env := range isolationEnvs(prof) {
		env := env
		jobs = append(jobs, runner.Job[IsolationRow]{
			// The key is shared with no other experiment on purpose: the
			// derived seed differs from the interference cells', so the
			// score-vs-amplification comparison is across independently
			// seeded runs, not an artifact of shared noise.
			Key: fmt.Sprintf("isolation/%s", env),
			Run: func(seed uint64) IsolationRow {
				opts := sc.vbOptions()
				opts.Seed = seed
				opts.Contention = true
				r, _ := sc.cachedCell(env, machine, c, "", opts)
				return isolationRow(env, r)
			},
		})
	}
	rows, m, err := sweepCells(ctx, sc, jobs)
	return IsolationResult{Rows: rows[:m.Completed], Par: m}, err
}

// isolationRow reduces one environment run's recorder to its report row.
func isolationRow(env EnvSpec, r *varbench.Result) IsolationRow {
	rec := r.Isolation
	s := rec.ComputeScore()
	row := IsolationRow{
		Env:             env,
		Score:           s.Value,
		TailTasks:       s.TailTasks,
		TailWallUS:      s.TailWall.Micros(),
		TailCrossUS:     s.TailCross.Micros(),
		TailInjUS:       s.TailInj.Micros(),
		WallUS:          s.Wall.Micros(),
		WaitUS:          s.Wait.Micros(),
		CrossUS:         s.Cross.Micros(),
		InjUS:           s.Inj.Micros(),
		SharedFamilies:  s.SharedFamilies,
		TouchedFamilies: s.TouchedFamilies,
	}
	for _, fa := range rec.Families() {
		if fa.Cross == 0 || len(row.Leaks) >= maxLeakRows {
			break // families are sorted by cross wait descending
		}
		row.Leaks = append(row.Leaks, IsolationLeak{
			Family:       fa.Family,
			CrossUS:      fa.Cross.Micros(),
			WaitUS:       fa.Wait.Micros(),
			InjUS:        fa.Inj.Micros(),
			HoldUS:       fa.Hold.Micros(),
			Waiters:      fa.Waiters,
			Holders:      fa.Holders,
			SharedScopes: fa.SharedScopes,
			From:         fa.From,
			To:           fa.To,
			EdgeUS:       fa.Edge.Micros(),
		})
	}
	return row
}

// Fanout returns the metrics of the fan-out the result's cells ran as.
func (r IsolationResult) Fanout() runner.Metrics { return r.Par }

// Render formats the experiment: one grep-able score line per environment,
// the score table, each environment's top leaking locks, and the digest.
func (r IsolationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: tenant-aware lock-contention graph and isolation score\n" +
		"(score = fraction of tail wall time caused by other tenants' lock holds; lower = better isolated)\n\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "isolation %s score %.4f shared-surface %d/%d\n",
			row.Env, row.Score, row.SharedFamilies, row.TouchedFamilies)
	}
	sb.WriteByte('\n')

	t := &report.Table{
		Title: "Isolation score across surface-area partitions",
		Headers: []string{"environment", "score", "tail tasks", "tail wall µs",
			"tail cross µs", "cross µs", "wait µs", "shared/touched families"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Env.String(), fmt.Sprintf("%.4f", row.Score),
			fmt.Sprintf("%d", row.TailTasks),
			fmt.Sprintf("%.1f", row.TailWallUS),
			fmt.Sprintf("%.1f", row.TailCrossUS),
			fmt.Sprintf("%.1f", row.CrossUS),
			fmt.Sprintf("%.1f", row.WaitUS),
			fmt.Sprintf("%d/%d", row.SharedFamilies, row.TouchedFamilies))
	}
	sb.WriteString(t.String())
	sb.WriteByte('\n')

	lt := &report.Table{
		Title: "Top leaking locks (cross-tenant wait per family; worst matrix edge waiter→holder)",
		Headers: []string{"environment", "family", "cross µs", "hold µs",
			"waiters", "holders", "worst edge"},
	}
	for _, row := range r.Rows {
		for _, l := range row.Leaks {
			lt.AddRow(row.Env.String(), l.Family,
				fmt.Sprintf("%.1f", l.CrossUS),
				fmt.Sprintf("%.1f", l.HoldUS),
				fmt.Sprintf("%d", l.Waiters),
				fmt.Sprintf("%d", l.Holders),
				fmt.Sprintf("t%d→t%d %.1fµs", l.From, l.To, l.EdgeUS))
		}
	}
	sb.WriteString(lt.String())
	fmt.Fprintf(&sb, "\ndigest %s\n", r.Digest())
	return sb.String()
}

// CSV renders the result as machine-readable rows: one "score" row per
// environment followed by its "leak" rows.
func (r IsolationResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("kind,env,score,tail_tasks,tail_wall_us,tail_cross_us,tail_inj_us," +
		"wall_us,wait_us,cross_us,inj_us,shared_families,touched_families," +
		"family,leak_cross_us,leak_hold_us,leak_waiters,leak_holders,leak_from,leak_to,leak_edge_us\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "score,%s,%.6f,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d,,,,,,,,\n",
			row.Env, row.Score, row.TailTasks, row.TailWallUS, row.TailCrossUS, row.TailInjUS,
			row.WallUS, row.WaitUS, row.CrossUS, row.InjUS,
			row.SharedFamilies, row.TouchedFamilies)
		for _, l := range row.Leaks {
			fmt.Fprintf(&sb, "leak,%s,,,,,,,,,,,,%s,%.3f,%.3f,%d,%d,%d,%d,%.3f\n",
				row.Env, l.Family, l.CrossUS, l.HoldUS, l.Waiters, l.Holders,
				l.From, l.To, l.EdgeUS)
		}
	}
	return sb.String()
}

// Digest fingerprints the result's complete numeric content (the SHA-256
// of the canonical CSV), the value fan-out harnesses compare to assert
// bit-identity with a serial run.
func (r IsolationResult) Digest() string {
	h := sha256.Sum256([]byte(r.CSV()))
	return hex.EncodeToString(h[:])
}
