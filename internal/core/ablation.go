package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/varbench"
)

// AblationRow is one kernel-model variant's tail summary on the native
// 64-core configuration.
type AblationRow struct {
	Variant string
	// Percent of call sites with p99 / max above 1ms.
	P99Over1ms  float64
	MaxOver1ms  float64
	MaxOver10ms float64
}

// AblationResult quantifies how much each modeled interference mechanism
// contributes to the shared kernel's tails — the design-choice audit
// DESIGN.md §5 calls for. Each variant disables one mechanism on the
// native kernel and re-runs the corpus.
type AblationResult struct {
	Rows []AblationRow
}

// ablationVariant builds a native environment with one mechanism disabled.
type ablationVariant struct {
	name string
	mut  func(*kernel.Params)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"full model", func(*kernel.Params) {}},
		{"no housekeeping noise / ticks", func(p *kernel.Params) {
			p.Quiet = true
		}},
		{"light-tailed housekeeping (alpha=3)", func(p *kernel.Params) {
			p.NoiseAlpha = 3.0
		}},
		{"small-kernel burst cap (1-core surface)", func(p *kernel.Params) {
			small := kernel.DefaultParams(1, 0.5)
			p.NoiseMaxBurst = small.NoiseMaxBurst
			p.NoiseMeanGap = small.NoiseMeanGap
		}},
		{"free IPI broadcasts", func(p *kernel.Params) {
			p.IPIBase = 1
			p.IPIPerTarget = 1
			p.IPIHandlerCost = 1
		}},
		{"infinite device parallelism", func(p *kernel.Params) {
			p.BlockQueueDepth = 1 << 20
		}},
		{"half-length critical sections", func(p *kernel.Params) {
			p.HoldScale = 0.5
		}},
	}
}

// RunAblation executes the ablation study at the given scale.
func RunAblation(ctx context.Context, sc Scale) (AblationResult, error) {
	c, _ := sc.GenerateCorpus()
	variants := ablationVariants()
	rows, _, err := mapCells(ctx, sc, len(variants), func(i int) AblationRow {
		v := variants[i]
		par := kernel.DefaultParams(platform.PaperMachine.Cores, platform.PaperMachine.MemGB)
		v.mut(&par)
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.Config{
			Name:   "ablate-" + v.name,
			Cores:  platform.PaperMachine.Cores,
			MemGB:  platform.PaperMachine.MemGB,
			Params: par,
		}, rng.New(sc.Seed).Split(0xab1a))
		env := platform.FromKernel(eng, k)
		r := varbench.Run(env, c, sc.vbOptions())
		p99 := r.P99Breakdown()
		max := r.MaxBreakdown()
		return AblationRow{
			Variant:     v.name,
			P99Over1ms:  100 - p99.Under[3],
			MaxOver1ms:  100 - max.Under[3],
			MaxOver10ms: 100 - max.Under[4],
		}
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Rows: rows}, nil
}

// Render formats the ablation table.
func (r AblationResult) Render() string {
	t := &report.Table{
		Title: "Ablation: contribution of each interference mechanism to native-kernel tails\n" +
			"(64-core shared kernel; % of call sites above each threshold)",
		Headers: []string{"variant", "p99>1ms", "max>1ms", "max>10ms"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant,
			fmt.Sprintf("%.2f%%", row.P99Over1ms),
			fmt.Sprintf("%.2f%%", row.MaxOver1ms),
			fmt.Sprintf("%.2f%%", row.MaxOver10ms))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	return sb.String()
}
