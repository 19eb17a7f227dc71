package density

import (
	"fmt"

	"ksa/internal/corpus"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
)

// Surface selects the isolation substrate a tenant boots on.
type Surface uint8

const (
	// Containers shares one full-surface host kernel (cgroup/namespace
	// entry overhead, housekeeping densified by tenancy) across all slots.
	Containers Surface = iota
	// KVM boots a per-tenant single-core guest kernel behind the default
	// virtualization model, relaying block I/O through the shared host
	// device — the paper's partitioned surface, paid for at boot time.
	KVM
	// Specialized boots a per-tenant single-core kernel with the unused
	// subsystems' housekeeping stripped (a unikernel-style reduced surface):
	// no virtualization tax and an order less background noise.
	Specialized
)

// Surfaces lists every substrate in canonical (report) order.
var Surfaces = []Surface{Containers, KVM, Specialized}

// String names the surface as used in job keys and reports.
func (s Surface) String() string {
	switch s {
	case Containers:
		return "containers"
	case KVM:
		return "kvm"
	case Specialized:
		return "specialized"
	}
	return fmt.Sprintf("surface(%d)", uint8(s))
}

// Boot and teardown costs per surface: containers fork into a warm shared
// kernel; KVM pays full guest-kernel construction plus device attach;
// a specialized kernel boots an order of magnitude faster than KVM (tiny
// image, no device emulation to negotiate) but still slower than a fork.
var surfaceCosts = map[Surface]struct{ boot, teardown sim.Time }{
	Containers:  {boot: 300 * sim.Microsecond, teardown: 50 * sim.Microsecond},
	KVM:         {boot: 1500 * sim.Microsecond, teardown: 200 * sim.Microsecond},
	Specialized: {boot: 150 * sim.Microsecond, teardown: 20 * sim.Microsecond},
}

// Options configures one density cell.
type Options struct {
	// Surface is the isolation substrate.
	Surface Surface
	// Tenants is the number of ephemeral tenants in the arrival stream.
	Tenants int
	// RequestsPerTenant is how many cold-start bursts each tenant serves
	// before teardown. Default 3.
	RequestsPerTenant int
	// ArrivalGapMean is the mean of the exponential inter-arrival gap.
	// Default 50µs (≈20k arrivals/simulated-second offered load).
	ArrivalGapMean sim.Time
	// Slots is the admission width — concurrently live tenants (one machine
	// core each). Arrivals beyond it queue FIFO. Default 64 (PaperMachine).
	Slots int
	// Seed roots every random stream in the cell.
	Seed uint64
	// ExactStats switches every recorded sample from the default
	// bounded-memory sketch to exact retained values (the memory-hungry
	// oracle the sketch is property-tested against).
	ExactStats bool
}

func (o Options) withDefaults() Options {
	if o.RequestsPerTenant <= 0 {
		o.RequestsPerTenant = 3
	}
	if o.ArrivalGapMean <= 0 {
		o.ArrivalGapMean = 50 * sim.Microsecond
	}
	if o.Slots <= 0 {
		o.Slots = platform.PaperMachine.Cores
	}
	return o
}

// Result holds one cell's distributions. All latency samples are in µs.
type Result struct {
	Surface  Surface
	Tenants  int
	Requests int // completed cold-start bursts
	Calls    uint64

	// Makespan is the simulated time from first arrival to last teardown.
	Makespan sim.Time
	// Events is the engine's executed-event count — the cell's work metric
	// (events/sec against wall time is the harness throughput number).
	Events uint64

	// Queue is per-tenant admission wait (0 for immediately admitted).
	Queue *stats.Sample
	// Lifetime is per-tenant arrival→teardown-complete latency: queueing,
	// boot, every request, and teardown. The end-to-end cold-start tail.
	Lifetime *stats.Sample
	// Request is per-burst latency (first call issued → last call retired).
	Request *stats.Sample
	// All pools every call latency across categories.
	All *stats.Sample
	// Category holds per-category call latencies, aligned with
	// syscalls.CategoryNames order.
	Category []*stats.Sample
}

// coldStartProgram is the serverless cold-start syscall burst: spawn, exec,
// heap growth, code mapping and protection, then reading the handler's
// payload. Every call exists in the default table; argument slots the
// program leaves unset compile as zeros, which the specs accept.
func coldStartProgram(tab *syscalls.Table) *corpus.Program {
	call := func(name string, args ...corpus.ArgValue) corpus.Call {
		sp := tab.Lookup(name)
		if sp == nil {
			panic("density: syscall missing from table: " + name)
		}
		return corpus.Call{Syscall: sp.ID(), Args: args}
	}
	return &corpus.Program{Calls: []corpus.Call{
		call("fork"),
		call("execve", corpus.Const(7)),
		call("brk", corpus.Const(1<<22)),
		call("mmap", corpus.Const(0), corpus.Const(1<<21)),
		call("mprotect", corpus.Const(0), corpus.Const(1<<16)),
		call("prctl", corpus.Const(3)), // sandbox setup (no_new_privs/seccomp-style)
		call("open", corpus.Const(11), corpus.Const(0)),
		call("read", corpus.Result(6), corpus.Const(4096)),
		call("close", corpus.Result(6)),
	}}
}

// callCategories maps each program call to the CategoryNames indices it
// belongs to, precomputed once per cell.
func callCategories(p *corpus.Program, tab *syscalls.Table) [][]int {
	out := make([][]int, len(p.Calls))
	for i, c := range p.Calls {
		cats := tab.Get(c.Syscall).Cats
		for ci, cn := range syscalls.CategoryNames {
			if cats&cn.Cat != 0 {
				out[i] = append(out[i], ci)
			}
		}
	}
	return out
}

// Run simulates one density cell to completion.
func Run(o Options) *Result {
	o = o.withDefaults()
	eng := sim.NewEngine()
	src := rng.New(o.Seed)
	arrivals := src.Split(0xa881)
	kernSeeds := src.Split(0x7e4a)
	tab := syscalls.Default()
	prog := coldStartProgram(tab)
	cp := corpus.Compile(prog, tab)
	cats := callCategories(prog, tab)

	newSample := func(capHint int) *stats.Sample {
		if o.ExactStats {
			return stats.NewExactSample(capHint)
		}
		return stats.NewSample(capHint)
	}
	nCalls := o.Tenants * o.RequestsPerTenant * len(prog.Calls)
	res := &Result{
		Surface:  o.Surface,
		Tenants:  o.Tenants,
		Queue:    newSample(o.Tenants),
		Lifetime: newSample(o.Tenants),
		Request:  newSample(o.Tenants * o.RequestsPerTenant),
		All:      newSample(nCalls),
	}
	for range syscalls.CategoryNames {
		res.Category = append(res.Category, newSample(nCalls/2))
	}

	costs := surfaceCosts[o.Surface]
	machine := platform.PaperMachine
	memPer := machine.MemGB / float64(o.Slots)

	// Substrate construction. The shared container kernel and the KVM host
	// block device exist for the whole cell; per-tenant kernels are built at
	// admission and dropped at teardown (kernel noise streams draw lazily,
	// so a dead kernel schedules nothing and is collectable).
	var (
		shared  *kernel.Kernel
		hostBlk *sim.Semaphore
	)
	switch o.Surface {
	case Containers:
		// The docker environment's tenancy shaping, scaled by the admission
		// width (the concurrently live tenant count).
		shared = kernel.New(eng, kernel.Config{
			Name: "dock", Cores: machine.Cores, MemGB: machine.MemGB,
			Params: platform.ContainerParams(machine, o.Slots),
		}, kernSeeds.Split(0x444f434b))
	case KVM:
		hostBlk = sim.NewSemaphore(eng, "host-blk", 8)
	}

	bootKernel := func(id int) *kernel.Kernel {
		switch o.Surface {
		case KVM:
			return kernel.New(eng, kernel.Config{
				Name: "uvm", Cores: 1, MemGB: memPer,
				Virt: platform.DefaultVirtModel(hostBlk),
			}, kernSeeds.Split(uint64(id)))
		case Specialized:
			par := kernel.DefaultParams(1, memPer)
			// The specialized image drops the subsystems this workload
			// never enters: housekeeping an order sparser and bursts an
			// order shorter than a general-purpose kernel of equal surface.
			par.NoiseMeanGap *= 10
			par.NoiseMaxBurst = sim.Time(float64(par.NoiseMaxBurst) / 10)
			return kernel.New(eng, kernel.Config{
				Name: "uk", Cores: 1, MemGB: memPer, Params: par,
			}, kernSeeds.Split(uint64(id)))
		}
		return shared
	}

	// Persistent per-slot runners on the shared container kernel (process
	// state resets per request); per-tenant surfaces build a fresh runner
	// on their fresh kernel's core 0.
	var slotRunners []*corpus.Runner
	if o.Surface == Containers {
		slotRunners = make([]*corpus.Runner, o.Slots)
		for s := range slotRunners {
			slotRunners[s] = corpus.NewRunner(eng, shared, s, tab)
		}
	}

	type waiter struct {
		id      int
		arrived sim.Time
	}
	var (
		queue    []waiter
		slotFree = make([]bool, o.Slots)
		start    func(slot, id int, arrived sim.Time)
	)
	for s := range slotFree {
		slotFree[s] = true
	}

	release := func(slot int) {
		if len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			res.Queue.Add((eng.Now() - w.arrived).Micros())
			start(slot, w.id, w.arrived)
			return
		}
		slotFree[slot] = true
	}

	start = func(slot, id int, arrived sim.Time) {
		var r *corpus.Runner
		if o.Surface == Containers {
			r = slotRunners[slot]
		} else {
			r = corpus.NewRunner(eng, bootKernel(id), 0, tab)
		}
		reqs := 0
		var reqStart sim.Time
		perCall := func(i int, lat sim.Time) {
			us := lat.Micros()
			res.All.Add(us)
			for _, ci := range cats[i] {
				res.Category[ci].Add(us)
			}
			res.Calls++
		}
		var serve func()
		serve = func() {
			if reqs == o.RequestsPerTenant {
				eng.After(costs.teardown, func() {
					res.Lifetime.Add((eng.Now() - arrived).Micros())
					release(slot)
				})
				return
			}
			reqs++
			reqStart = eng.Now()
			r.ResetProc()
			r.RunCompiled(cp, perCall, func() {
				res.Request.Add((eng.Now() - reqStart).Micros())
				res.Requests++
				serve()
			})
		}
		eng.After(costs.boot, serve)
	}

	next := 0
	var arrive func()
	arrive = func() {
		id := next
		next++
		now := eng.Now()
		admitted := false
		for s := range slotFree {
			if slotFree[s] {
				slotFree[s] = false
				res.Queue.Add(0)
				start(s, id, now)
				admitted = true
				break
			}
		}
		if !admitted {
			queue = append(queue, waiter{id: id, arrived: now})
		}
		if next < o.Tenants {
			eng.After(sim.FromMicros(arrivals.Exp(o.ArrivalGapMean.Micros())), arrive)
		}
	}
	if o.Tenants > 0 {
		eng.After(sim.FromMicros(arrivals.Exp(o.ArrivalGapMean.Micros())), arrive)
	}

	eng.Run()
	res.Makespan = eng.Now()
	res.Events = eng.Executed()
	return res
}
