package core

import (
	"context"
	"math"
	"testing"

	"ksa/internal/fault"
)

func interferenceAt(t *testing.T, parallel int) InterferenceResult {
	t.Helper()
	sc := QuickScale()
	sc.Seed = 7
	sc.CorpusPrograms = 6
	sc.Iterations = 2
	sc.Warmup = 1
	sc.Parallel = parallel
	plan, ok := fault.Preset("mixed")
	if !ok {
		t.Fatal("mixed preset missing")
	}
	return must(RunInterference(context.Background(), sc, plan))
}

// The golden determinism contract for the interference ablation: the same
// plan and seed produce byte-identical reports whether the grid runs
// serially or fanned across 8 workers.
func TestInterferenceBitIdentity(t *testing.T) {
	serial := interferenceAt(t, 1)
	par := interferenceAt(t, 8)
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		a, b := serial.Rows[i], par.Rows[i]
		if a.Env != b.Env {
			t.Fatalf("row %d env order diverged: %v vs %v", i, a.Env, b.Env)
		}
		for _, c := range []struct {
			name string
			x, y float64
		}{
			{"base p50", a.BaseP50, b.BaseP50}, {"base p99", a.BaseP99, b.BaseP99},
			{"base max", a.BaseMax, b.BaseMax}, {"fault p50", a.FaultP50, b.FaultP50},
			{"fault p99", a.FaultP99, b.FaultP99}, {"fault max", a.FaultMax, b.FaultMax},
			{"amp p50", a.AmpP50, b.AmpP50}, {"amp p99", a.AmpP99, b.AmpP99},
			{"amp max", a.AmpMax, b.AmpMax},
		} {
			if math.Float64bits(c.x) != math.Float64bits(c.y) {
				t.Fatalf("row %d (%v) %s: %v vs %v", i, a.Env, c.name, c.x, c.y)
			}
		}
	}
	if serial.Render() != par.Render() {
		t.Fatal("rendered reports differ between serial and parallel runs")
	}
	if serial.CSV() != par.CSV() {
		t.Fatal("CSV outputs differ between serial and parallel runs")
	}
}

// The ablation must actually measure interference: every cell's faulted
// tails are at least its baseline, and the dose is visible somewhere.
func TestInterferenceMeasuresAmplification(t *testing.T) {
	res := interferenceAt(t, 0)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	amplified := false
	for _, row := range res.Rows {
		if row.BaseP99 <= 0 || row.FaultP99 <= 0 {
			t.Fatalf("%v: non-positive tails: %+v", row.Env, row)
		}
		if row.AmpP99 > 1.01 || row.AmpMax > 1.01 {
			amplified = true
		}
	}
	if !amplified {
		t.Fatal("mixed plan amplified no environment's tail")
	}
	if res.Plan != "mixed" {
		t.Fatalf("Plan = %q", res.Plan)
	}
}
