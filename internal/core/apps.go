package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/cluster"
	"ksa/internal/corpus"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/tailbench"
)

// noiseCorpus generates the co-tenant syscall corpus used by the
// application experiments (Figures 3 and 4).
func (sc Scale) noiseCorpus() *corpus.Corpus {
	opts := sc
	opts.CorpusPrograms = sc.CorpusPrograms / 2
	if opts.CorpusPrograms < 8 {
		opts.CorpusPrograms = 8
	}
	c, _ := opts.GenerateCorpus()
	return c
}

// ---------------------------------------------------------------------------
// Figure 3

// Figure3Row holds one application's Figure 3 numbers: isolated and
// contended p99 for both substrates, and the relative increases (Figure
// 3(c)).
type Figure3Row struct {
	App                         string
	KVMIso, KVMCont             float64 // p99 µs
	DockerIso, DockerCont       float64
	KVMIncrease, DockerIncrease float64 // percent
}

// Figure3Result holds per-application single-node tail-latency rows.
type Figure3Result struct {
	Rows []Figure3Row
}

// RunFigure3 reproduces Figure 3: single-node 99th-percentile request
// latency for every tailbench application, isolated and with a co-running
// 48-core syscall corpus, on KVM and Docker.
func RunFigure3(ctx context.Context, sc Scale) (Figure3Result, error) {
	apps := tailbench.Apps()
	p99s, err := sc.singleNodeGrid(ctx, apps, platform.KindVMs, platform.KindContainers)
	if err != nil {
		return Figure3Result{}, err
	}
	var out Figure3Result
	for ai, app := range apps {
		p := p99s[ai*4:]
		out.Rows = append(out.Rows, Figure3Row{App: app.Name,
			KVMIso: p[0], KVMCont: p[1], DockerIso: p[2], DockerCont: p[3],
			KVMIncrease: increase(p[0], p[1]), DockerIncrease: increase(p[2], p[3]),
		})
	}
	return out, nil
}

// singleNodeGrid runs the single-node scenario (Figure 3, the lightvm
// extension) for every app × kind × {isolated, contended}, one pool cell
// each, and returns the p99s in that order (app-major, isolated first).
func (sc Scale) singleNodeGrid(ctx context.Context, apps []*tailbench.App, kinds ...platform.EnvKind) ([]float64, error) {
	noise := sc.noiseCorpus()
	srv := tailbench.ServerOptions{
		Util: 0.75, Warmup: sc.ServerWarmup, Measure: sc.ServerMeasure, Seed: sc.Seed,
	}
	per := 2 * len(kinds)
	p99s, _, err := mapCells(ctx, sc, len(apps)*per, func(i int) float64 {
		return tailbench.RunSingleNode(tailbench.SingleNodeConfig{
			Kind: kinds[i%per/2], App: apps[i/per], Contended: i%2 == 1,
			NoiseCorpus: noise, Server: srv, Seed: sc.Seed,
		}).P99
	})
	return p99s, err
}

// increase is the percent change from an isolated to a contended reading
// (Figures 3(c) and 4(c)); zero when the isolated reading is not positive.
func increase(iso, cont float64) float64 {
	if iso <= 0 {
		return 0
	}
	return 100 * (cont - iso) / iso
}

// Render formats the three Figure 3 panels.
func (r Figure3Result) Render() string {
	var sb strings.Builder
	groups := make([]string, len(r.Rows))
	iso := make([][]float64, len(r.Rows))
	cont := make([][]float64, len(r.Rows))
	inc := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.App
		iso[i] = []float64{row.KVMIso, row.DockerIso}
		cont[i] = []float64{row.KVMCont, row.DockerCont}
		inc[i] = []float64{row.KVMIncrease, row.DockerIncrease}
	}
	ms := func(v float64) string { return fmt.Sprintf("%.2f", v/1000) }
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	sb.WriteString(report.GroupedBars("Figure 3(a): isolated 99th percentile latency (ms)",
		"app", []string{"KVM", "Docker"}, groups, iso, ms).String())
	sb.WriteByte('\n')
	sb.WriteString(report.GroupedBars("Figure 3(b): contended 99th percentile latency (ms)",
		"app", []string{"KVM", "Docker"}, groups, cont, ms).String())
	sb.WriteByte('\n')
	sb.WriteString(report.GroupedBars("Figure 3(c): p99 increase, isolated -> contended",
		"app", []string{"KVM", "Docker"}, groups, inc, pct).String())
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 4

// Figure4Row is one application's cluster runtimes (microsecond-precision
// virtual times rendered in ms).
type Figure4Row struct {
	App        string
	KVMIso     float64 // runtime, ms
	KVMCont    float64
	DockerIso  float64
	DockerCont float64
	// Relative losses isolated -> contended, percent (Figure 4(c)).
	KVMLoss, DockerLoss float64
}

// Figure4Result holds all applications' rows.
type Figure4Result struct {
	Rows []Figure4Row
}

// Fig4Apps lists the applications the paper runs at cluster scale (shore
// needs SSDs the nodes lack; specjbb hit JVM failures).
func Fig4Apps() []string {
	return []string{"xapian", "masstree", "moses", "sphinx", "img-dnn", "silo"}
}

// RunFigure4 reproduces Figure 4: 64-node BSP runtimes for the cluster
// applications, isolated and contended, on KVM and Docker.
func RunFigure4(ctx context.Context, sc Scale) (Figure4Result, error) {
	noise := sc.noiseCorpus()
	noiseDigest := sc.corpusDigest(noise)
	apps := Fig4Apps()
	// One job per (app, substrate, contention) cell — 24 independent
	// cluster simulations. The outer fan-out saturates the workers, so each
	// cluster runs its own nodes serially (Workers: 1) rather than
	// oversubscribing with nested parallelism; either choice yields the
	// same bits.
	type cell struct {
		app  string
		kind platform.EnvKind
		cont bool
	}
	var cells []cell
	for _, name := range apps {
		for _, kind := range []platform.EnvKind{platform.KindVMs, platform.KindContainers} {
			cells = append(cells, cell{name, kind, false}, cell{name, kind, true})
		}
	}
	runtimes, _, err := mapCells(ctx, sc, len(cells), func(i int) float64 {
		cl := cells[i]
		r := sc.cachedCluster(cluster.Config{
			App: tailbench.AppByName(cl.app), Kind: cl.kind, Contended: cl.cont,
			NoiseCorpus: noise, Nodes: sc.Nodes, Iterations: sc.ClusterIterations,
			RequestsPerIter: sc.RequestsPerIter, Seed: sc.Seed, Workers: 1,
		}, noiseDigest)
		return r.Runtime.Millis()
	})
	if err != nil {
		return Figure4Result{}, err
	}
	var out Figure4Result
	for ai, name := range apps {
		r := runtimes[ai*4:] // app-major: kvm-iso, kvm-cont, docker-iso, docker-cont
		out.Rows = append(out.Rows, Figure4Row{App: name,
			KVMIso: r[0], KVMCont: r[1], DockerIso: r[2], DockerCont: r[3],
			KVMLoss: increase(r[0], r[1]), DockerLoss: increase(r[2], r[3]),
		})
	}
	return out, nil
}

// Render formats the three Figure 4 panels.
func (r Figure4Result) Render() string {
	var sb strings.Builder
	groups := make([]string, len(r.Rows))
	iso := make([][]float64, len(r.Rows))
	cont := make([][]float64, len(r.Rows))
	loss := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.App
		iso[i] = []float64{row.KVMIso, row.DockerIso}
		cont[i] = []float64{row.KVMCont, row.DockerCont}
		loss[i] = []float64{row.KVMLoss, row.DockerLoss}
	}
	ms := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	sb.WriteString(report.GroupedBars("Figure 4(a): isolated cluster runtime (ms, 64 nodes)",
		"app", []string{"KVM", "Docker"}, groups, iso, ms).String())
	sb.WriteByte('\n')
	sb.WriteString(report.GroupedBars("Figure 4(b): contended cluster runtime (ms, 64 nodes)",
		"app", []string{"KVM", "Docker"}, groups, cont, ms).String())
	sb.WriteByte('\n')
	sb.WriteString(report.GroupedBars("Figure 4(c): runtime loss, isolated -> contended",
		"app", []string{"KVM", "Docker"}, groups, loss, pct).String())
	return sb.String()
}
