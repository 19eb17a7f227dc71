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
	var apps []*tailbench.App
	for _, name := range []string{"xapian", "masstree", "moses", "silo", "shore"} {
		apps = append(apps, tailbench.AppByName(name))
	}
	p99s, err := sc.singleNodeGrid(ctx, apps, platform.KindContainers, platform.KindVMs, platform.KindLightVMs)
	if err != nil {
		return LightVMResult{}, err
	}
	var out LightVMResult
	for ai, app := range apps {
		p := p99s[ai*6:]
		out.Rows = append(out.Rows, LightVMRow{App: app.Name,
			DockerIso: p[0], DockerCont: p[1], KVMIso: p[2], KVMCont: p[3], LightIso: p[4], LightCont: p[5],
			DockerIncrease: increase(p[0], p[1]), KVMIncrease: increase(p[2], p[3]), LightIncrease: increase(p[4], p[5]),
		})
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
