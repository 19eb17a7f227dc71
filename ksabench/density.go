package main

import (
	"fmt"

	"ksa/internal/density"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/runner"
	"ksa/internal/sim"
)

const (
	densityTenants  = 1000
	densityRequests = 3
	// kernelProbes is how many per-tenant kernels a traced density op
	// builds on the side to time kernel.New alone.
	kernelProbes = 64
)

// densityOps derives the op sequence: surfaces round-robin, each op its
// own seed.
func densityOps(seed uint64, n int) []density.Options {
	ops := make([]density.Options, n)
	for i := range ops {
		surf := density.Surfaces[i%len(density.Surfaces)]
		ops[i] = density.Options{
			Surface: surf, Tenants: densityTenants, RequestsPerTenant: densityRequests,
			Seed: runner.DeriveSeed(seed, fmt.Sprintf("bench/density/%s/op=%d", surf, i)),
		}
	}
	return ops
}

// densityCells runs one density cell per op: 1,000 ephemeral tenants × 3
// cold-start requests.
type densityCells struct {
	seed uint64
	n    int
	ops  []density.Options
}

func newDensity(seed uint64, n int) *densityCells { return &densityCells{seed: seed, n: n} }

// setup only derives the op sequence: a density cell needs no shared state.
func (w *densityCells) setup() error {
	w.ops = densityOps(w.seed, w.n)
	return nil
}

func (w *densityCells) op(i int) (check, error) {
	r := density.Run(w.ops[i])
	return func() ([]byte, error) { return checkDensity(r) }, nil
}

func checkDensity(r *density.Result) ([]byte, error) {
	if want := r.Tenants * densityRequests; r.Requests != want {
		return nil, fmt.Errorf("density %s: %d requests completed, want %d", r.Surface, r.Requests, want)
	}
	return fmt.Appendf(nil, "%s tenants=%d requests=%d calls=%d events=%d makespan=%d queue_p99=%g life=%g/%g req_p99=%g call=%g/%g/%g",
		r.Surface, r.Tenants, r.Requests, r.Calls, r.Events, r.Makespan, r.Queue.P99(),
		r.Lifetime.Median(), r.Lifetime.P99(), r.Request.P99(), r.All.Median(), r.All.P99(), r.All.Max()), nil
}

func (w *densityCells) traceSetup(*tracer) error { return nil }

func (w *densityCells) tracedOp(i int, tr *tracer) (check, error) {
	var r *density.Result
	tr.opSpan(func() { tr.span("density.run", func() { r = density.Run(w.ops[i]) }) })
	tr.count("density.calls", float64(r.Calls))
	tr.count("density.makespan_sim_ms", r.Makespan.Millis())
	tr.count("density.tenants", float64(r.Tenants))
	probeKernelNew(w.ops[i], tr)
	return func() ([]byte, error) { return checkDensity(r) }, nil
}

// probeKernelNew builds kernelProbes per-tenant kernels with the config
// density.Run boots for the op's surface, one kernel.New span each. The
// container surface shares one kernel per cell and has none.
func probeKernelNew(o density.Options, tr *tracer) {
	m := platform.PaperMachine
	memPer := m.MemGB / float64(m.Cores) // density's default admission width is one slot per core
	eng := sim.NewEngine()
	var cfg kernel.Config
	switch o.Surface {
	case density.KVM:
		cfg = kernel.Config{Name: "uvm", Cores: 1, MemGB: memPer,
			Virt: platform.DefaultVirtModel(sim.NewSemaphore(eng, "host-blk", 8))}
	case density.Specialized:
		par := kernel.DefaultParams(1, memPer)
		par.NoiseMeanGap *= 10
		par.NoiseMaxBurst = sim.Time(float64(par.NoiseMaxBurst) / 10)
		cfg = kernel.Config{Name: "uk", Cores: 1, MemGB: memPer, Params: par}
	default:
		return
	}
	src := rng.New(o.Seed)
	for k := 0; k < kernelProbes; k++ {
		tr.span("kernel.new", func() { kernel.New(eng, cfg, src.Split(uint64(k))) })
	}
}

func (w *densityCells) close() error { return nil }
