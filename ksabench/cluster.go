package main

import (
	"fmt"

	"ksa/internal/cluster"
	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/platform"
	"ksa/internal/resultcache/codec"
	"ksa/internal/rng"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
	"ksa/internal/tailbench"
)

// clusterCycle is the number of distinct Figure 4 cells: 6 apps × {kvm,
// docker} × {isolated, contended}.
const clusterCycle = 24

// compileProbes is how many requests a traced cluster op compiles on the
// side to time App.CompileRequest alone.
const compileProbes = 64

// clusterOp is one Figure 4 cell.
type clusterOp struct {
	app       string
	kind      platform.EnvKind
	contended bool
	seed      uint64
}

// clusterOps derives the op sequence in RunFigure4Context's cell order
// (app-major: kvm isolated, kvm contended, docker isolated, docker
// contended), each op its own seed.
func clusterOps(seed uint64, n int) []clusterOp {
	apps := core.Fig4Apps()
	kinds := []platform.EnvKind{platform.KindVMs, platform.KindContainers}
	ops := make([]clusterOp, n)
	for i := range ops {
		j := i % clusterCycle
		ops[i] = clusterOp{app: apps[j/4%len(apps)], kind: kinds[j/2%2], contended: j%2 == 1,
			seed: runner.DeriveSeed(seed, fmt.Sprintf("bench/cluster/op=%d", i))}
	}
	return ops
}

// clusterCells runs one Figure 4 cell per op at the quick preset's cluster
// size, configured as RunFigure4Context configures it. Each cycle of 24 ops
// has its own co-tenant noise corpus, so a run does not hinge on one.
type clusterCells struct {
	seed  uint64
	n     int
	sc    core.Scale
	noise []*corpus.Corpus // by cycle
	ops   []clusterOp
}

func newCluster(seed uint64, n int) *clusterCells {
	return &clusterCells{seed: seed, n: n, sc: core.QuickScale()}
}

// noiseScale is the scale RunFigure4Context generates a noise corpus at
// (half the preset's programs, at least 8), seeded for cycle c.
func (w *clusterCells) noiseScale(c int) core.Scale {
	sc := w.sc
	sc.Seed = groupSeed(w.seed, "cluster-bsp", c)
	sc.CorpusPrograms = max(w.sc.CorpusPrograms/2, 8)
	return sc
}

// setup generates every cycle's noise corpus and derives the op sequence.
func (w *clusterCells) setup() error {
	w.noise = make([]*corpus.Corpus, (w.n+clusterCycle-1)/clusterCycle)
	for c := range w.noise {
		w.noise[c], _ = w.noiseScale(c).GenerateCorpus()
	}
	w.ops = clusterOps(w.seed, w.n)
	return nil
}

func (w *clusterCells) config(i int) cluster.Config {
	o := w.ops[i]
	return cluster.Config{
		App: tailbench.AppByName(o.app), Kind: o.kind, Contended: o.contended,
		NoiseCorpus: w.noise[i/clusterCycle], Nodes: w.sc.Nodes, Iterations: w.sc.ClusterIterations,
		RequestsPerIter: w.sc.RequestsPerIter, Seed: o.seed, Workers: 1,
	}
}

func (w *clusterCells) op(i int) (check, error) {
	res := cluster.Run(w.config(i))
	return func() ([]byte, error) { return w.checkCluster(&res) }, nil
}

func (w *clusterCells) checkCluster(r *cluster.Result) ([]byte, error) {
	if len(r.IterTimes) != w.sc.ClusterIterations {
		return nil, fmt.Errorf("cluster %s/%s: %d iterations, want %d", r.App, r.Env, len(r.IterTimes), w.sc.ClusterIterations)
	}
	return codec.EncodeCluster(r), nil
}

func (w *clusterCells) traceSetup(tr *tracer) error {
	for c := range w.noise {
		tr.span("fuzz.generate", func() { w.noise[c], _ = w.noiseScale(c).GenerateCorpus() })
	}
	return nil
}

func (w *clusterCells) tracedOp(i int, tr *tracer) (check, error) {
	cfg := w.config(i)
	var res cluster.Result
	tr.opSpan(func() { tr.span("cluster.run", func() { res = cluster.Run(cfg) }) })
	tr.count("cluster.requests", float64(cfg.Nodes*cfg.Iterations*cfg.RequestsPerIter))
	tr.count("cluster.runtime_sim_ms", res.Runtime.Millis())
	probeCompileRequest(w.ops[i], tr)
	return func() ([]byte, error) { return w.checkCluster(&res) }, nil
}

// probeCompileRequest compiles compileProbes requests of the op's app on a
// fresh node of the op's substrate (the default 24-core, two-partition
// node), one tailbench.compile_request span each.
func probeCompileRequest(o clusterOp, tr *tracer) {
	eng := sim.NewEngine()
	src := rng.New(o.seed)
	m := platform.Machine{Cores: 24, MemGB: 64}
	var env *platform.Environment
	if o.kind == platform.KindVMs {
		env = platform.VMs(eng, m, 2, src)
	} else {
		env = platform.Containers(eng, m, 2, src)
	}
	ref := env.Core(0)
	proc := syscalls.NewProc(eng)
	proc.VMAs = 8 // as cluster nodes set up their worker processes
	ctx := &syscalls.Ctx{Kern: ref.Kernel, Core: ref.Core, Proc: proc, Cov: syscalls.NopCoverage{}}
	app := tailbench.AppByName(o.app)
	reqs := src.Split(7)
	for k := 0; k < compileProbes; k++ {
		tr.span("tailbench.compile_request", func() { app.CompileRequest(ctx, reqs) })
	}
}

func (w *clusterCells) close() error { return nil }
