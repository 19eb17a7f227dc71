package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/tailbench"
)

// ---------------------------------------------------------------------------
// Extension: lightweight VMs (the paper's named future work)

// LightVMRow is one application's three-way comparison: Docker, classic
// KVM, and a Firecracker/Kata-class microVM, isolated and contended.
type LightVMRow struct {
	App                         string
	DockerIso, DockerCont       float64 // p99 µs
	KVMIso, KVMCont             float64
	LightIso, LightCont         float64
	DockerIncrease, KVMIncrease float64 // percent
	LightIncrease               float64
}

// LightVMResult holds the extension experiment's rows.
type LightVMResult struct {
	Rows []LightVMRow
}

// RunLightVMExtension evaluates the paper's open question: do lightweight
// VMs keep the isolation benefit (bounded contended degradation) while
// shedding most of the virtualization tax (isolated gap to Docker)? Runs
// the Figure 3 scenario with a third substrate.
func RunLightVMExtension(ctx context.Context, sc Scale) (LightVMResult, error) {
	noise := sc.noiseCorpus()
	srv := tailbench.ServerOptions{
		Util: 0.75, Warmup: sc.ServerWarmup, Measure: sc.ServerMeasure, Seed: sc.Seed,
	}
	apps := []string{"xapian", "masstree", "moses", "silo", "shore"}
	// 5 apps × 3 substrates × {iso, cont} = 30 independent single-node
	// simulations, fanned out and merged in grid order.
	kinds := []platform.EnvKind{platform.KindContainers, platform.KindVMs, platform.KindLightVMs}
	p99s, _, err := mapCells(ctx, sc, len(apps)*len(kinds)*2, func(i int) float64 {
		app, rest := apps[i/(len(kinds)*2)], i%(len(kinds)*2)
		return tailbench.RunSingleNode(tailbench.SingleNodeConfig{
			Kind: kinds[rest/2], App: tailbench.AppByName(app), Contended: rest%2 == 1,
			NoiseCorpus: noise, Server: srv, Seed: sc.Seed,
		}).P99
	})
	if err != nil {
		return LightVMResult{}, err
	}
	var out LightVMResult
	for ai, name := range apps {
		base := ai * len(kinds) * 2
		row := LightVMRow{App: name,
			DockerIso: p99s[base], DockerCont: p99s[base+1],
			KVMIso: p99s[base+2], KVMCont: p99s[base+3],
			LightIso: p99s[base+4], LightCont: p99s[base+5],
		}
		pct := func(iso, cont float64) float64 {
			if iso <= 0 {
				return 0
			}
			return 100 * (cont - iso) / iso
		}
		row.DockerIncrease = pct(row.DockerIso, row.DockerCont)
		row.KVMIncrease = pct(row.KVMIso, row.KVMCont)
		row.LightIncrease = pct(row.LightIso, row.LightCont)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the extension's two panels.
func (r LightVMResult) Render() string {
	var sb strings.Builder
	groups := make([]string, len(r.Rows))
	iso := make([][]float64, len(r.Rows))
	inc := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.App
		iso[i] = []float64{row.DockerIso, row.KVMIso, row.LightIso}
		inc[i] = []float64{row.DockerIncrease, row.KVMIncrease, row.LightIncrease}
	}
	ms := func(v float64) string { return fmt.Sprintf("%.2f", v/1000) }
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	sb.WriteString("Extension (paper §2 future work): lightweight VMs vs Docker vs KVM\n\n")
	sb.WriteString(report.GroupedBars("Isolated p99 (ms): the virtualization tax",
		"app", []string{"Docker", "KVM", "LightVM"}, groups, iso, ms).String())
	sb.WriteByte('\n')
	sb.WriteString(report.GroupedBars("p99 increase under contention: the isolation benefit",
		"app", []string{"Docker", "KVM", "LightVM"}, groups, inc, pct).String())
	return sb.String()
}
