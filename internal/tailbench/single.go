package tailbench

import (
	"fmt"

	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// SingleNodeConfig describes one §6.2 deployment: a 64-core machine split
// into 4 partitions of 16 cores; partition 0 serves one tailbench app, the
// other three optionally run the 48-core varbench noise corpus.
type SingleNodeConfig struct {
	// Kind selects KVM VMs or Docker containers as the isolation substrate.
	Kind platform.EnvKind
	// App is the tailbench workload to serve.
	App *App
	// Contended co-runs the 48-core syscall corpus.
	Contended bool
	// NoiseCorpus supplies the syscall programs for the noise tenant (must
	// be non-nil when Contended).
	NoiseCorpus *corpus.Corpus
	// Server configures the measurement.
	Server ServerOptions
	// Seed drives environment construction.
	Seed uint64
	// Machine defaults to the paper's 64-core/32GB host.
	Machine platform.Machine
	// Partitions defaults to 4 (1 app + 3 noise).
	Partitions int
	// Faults, when non-nil, doses the environment with the interference
	// plan for the warmup+measure window (injection seeds derive from
	// Seed). Composable with Contended: corpus noise and injected noise
	// then coexist.
	Faults *fault.Plan
}

// MeasureServiceTime runs requests back-to-back on one idle core of a
// fresh environment of the given kind and returns the mean request time.
// The single-node harness uses it to pick an arrival rate that genuinely
// offers ~75% utilization, including each substrate's kernel costs.
func MeasureServiceTime(kind platform.EnvKind, app *App, machine platform.Machine, parts int, seed uint64) sim.Time {
	eng := sim.NewEngine()
	src := rng.New(seed ^ 0xca11b)
	env := platform.New(eng, kind, machine, parts, src, nil)
	reqSrc := src.Split(1)
	const reqs = 256
	var total sim.Time
	served := 0
	var w *Worker
	w = NewWorker(eng, env.Core(0), 0x7357, func(e sim.Time) {
		total += e
		if served++; served < reqs {
			w.Serve(app, reqSrc)
		}
	})
	w.Serve(app, reqSrc)
	eng.Run()
	return total / reqs
}

// RunSingleNode executes one single-node tail-latency measurement (one bar
// of Figure 3) and returns the request-latency measurement.
func RunSingleNode(cfg SingleNodeConfig) Measurement {
	if cfg.Machine.Cores == 0 {
		cfg.Machine = platform.PaperMachine
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 4
	}
	if cfg.App == nil {
		panic("tailbench: SingleNodeConfig needs an App")
	}
	if cfg.Contended && cfg.NoiseCorpus == nil {
		panic("tailbench: contended run needs a NoiseCorpus")
	}
	switch cfg.Kind {
	case platform.KindVMs, platform.KindLightVMs, platform.KindContainers:
	default:
		panic(fmt.Sprintf("tailbench: unsupported env kind %v", cfg.Kind))
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	env := platform.New(eng, cfg.Kind, cfg.Machine, cfg.Partitions, src, nil)
	per := cfg.Machine.Cores / cfg.Partitions
	appCores := make([]platform.CoreRef, 0, per)
	for i := 0; i < per; i++ {
		appCores = append(appCores, env.Core(i))
	}
	opts := cfg.Server
	if opts.Measure == 0 {
		opts = DefaultServerOptions(cfg.Seed)
	}
	if opts.MeanService == 0 {
		opts.MeanService = MeasureServiceTime(cfg.Kind, cfg.App, cfg.Machine, cfg.Partitions, cfg.Seed)
	}
	if cfg.Faults != nil {
		fsrc := rng.New(cfg.Seed ^ 0xfa17).Split(1)
		fault.AttachUntil(eng, fsrc, *cfg.Faults, eng.Now()+opts.Warmup+opts.Measure, env.Kernels...)
	}
	collect := RunServer(env, appCores, cfg.App, opts)
	if cfg.Contended {
		noiseCores := make([]platform.CoreRef, 0, cfg.Machine.Cores-per)
		for i := per; i < cfg.Machine.Cores; i++ {
			noiseCores = append(noiseCores, env.Core(i))
		}
		deadline := eng.Now() + opts.Warmup + opts.Measure
		StartNoise(env, noiseCores, cfg.NoiseCorpus, deadline, 500*sim.Microsecond, src.Split(0x6e736b))
	}
	eng.Run()
	m := collect()
	m.Contended = cfg.Contended
	m.Env = cfg.Kind.String()
	return m
}
