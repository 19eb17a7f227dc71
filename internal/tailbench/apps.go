// Package tailbench models the paper's application-level evaluation (§6):
// the eight tailbench workloads as request/service models with per-app
// kernel-interaction profiles, served at ~75% utilization, measured by
// 99th-percentile request latency — deployed either in a KVM VM or a Docker
// container, with or without a 48-core system-call "noise" tenant.
//
// We do not run the real xapian/moses/silo binaries (unavailable here and
// irrelevant to the mechanism); what the paper's argument depends on is how
// often and in what way each application enters the kernel, how sensitive
// it is to VM exits, and how much disk I/O it does — exactly the parameters
// each App profile captures. DESIGN.md documents this substitution.
package tailbench

import (
	"math"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// App is one tailbench workload's kernel-interaction profile.
type App struct {
	// Name matches the paper's Table 4.
	Name string
	// Desc is the paper's one-line description.
	Desc string

	// ServiceMean is the mean on-CPU service time per request; ServiceSigma
	// the lognormal spread.
	ServiceMean  sim.Time
	ServiceSigma float64

	// SyscallsPerReq is how many kernel entries a request makes.
	SyscallsPerReq int
	// Mix lists the syscalls a request draws from (weighted).
	Mix []MixEntry
	// ExitsPerReq is the number of VM exits a request's user-space section
	// triggers under virtualization (TLB/cache-hostile workloads like silo
	// exit frequently); zero for exit-friendly apps.
	ExitsPerReq int
	// IOPerReq is the expected number of block-device round trips per
	// request (shore's disk residency).
	IOPerReq float64

	// mix is Mix resolved against the syscall table, built by Apps and
	// read-only afterwards, so parallel cluster nodes can share the App.
	mix *resolvedMix
}

// MixEntry weights one syscall in an app's per-request mix. Args, when
// non-nil, pins the call's arguments (servers exercise specific fast paths
// — e.g. futexes that wake rather than block); nil draws random arguments.
type MixEntry struct {
	Syscall string
	Weight  float64
	Args    []uint64
}

// resolvedMix is an app's request mix resolved once: the pick weights, and
// per entry the spec and its arguments, pinned ones already reduced into
// their generation domains.
type resolvedMix struct {
	weights []float64
	calls   []mixCall
}

// mixCall is one resolved MixEntry.
type mixCall struct {
	spec *syscalls.Spec
	// pinned holds the entry's pinned arguments, reduced into their
	// domains; arguments past it are drawn per request.
	pinned []uint64
}

// resolve looks up each mix entry's spec and reduces its pinned arguments,
// exactly as Spec.Compile reduces a raw argument list.
func resolve(mix []MixEntry) *resolvedMix {
	tab := syscalls.Default()
	r := &resolvedMix{weights: make([]float64, len(mix)), calls: make([]mixCall, len(mix))}
	for i, m := range mix {
		spec := tab.Lookup(m.Syscall)
		if spec == nil {
			panic("tailbench: unknown syscall in mix: " + m.Syscall)
		}
		if len(spec.Args) > maxArgs {
			panic("tailbench: too many arguments in mix syscall: " + m.Syscall)
		}
		pinned := make([]uint64, min(len(m.Args), len(spec.Args)))
		for j := range pinned {
			pinned[j] = m.Args[j] % spec.Args[j].GenDomain()
		}
		r.weights[i] = m.Weight
		r.calls[i] = mixCall{spec: spec, pinned: pinned}
	}
	return r
}

// Apps returns the paper's Table 4 workloads, in paper order, each with
// its request mix resolved against the syscall table. The resolution is
// taken once, here: changing an App's Mix afterwards does not change the
// requests compiled from it.
func Apps() []*App {
	apps := []*App{
		{
			Name: "xapian", Desc: "search engine",
			ServiceMean: sim.FromMicros(900), ServiceSigma: 0.5,
			SyscallsPerReq: 16,
			Mix: []MixEntry{
				{"read", 5, []uint64{3, 16384}}, {"pread64", 3, []uint64{3, 16384}},
				{"mmap", 2, []uint64{65536, 0}}, {"munmap", 0.5, []uint64{65536}},
				{"futex", 3, []uint64{7, 1}}, {"open", 1, []uint64{5, 0}},
				{"close", 1, nil}, {"lseek", 2, nil},
			},
		},
		{
			Name: "masstree", Desc: "in-memory key-value store",
			ServiceMean: sim.FromMicros(220), ServiceSigma: 0.4,
			SyscallsPerReq: 5,
			Mix: []MixEntry{
				{"futex", 2, []uint64{5, 1}}, {"futex", 2, []uint64{9, 2}},
				{"epoll_wait", 2, []uint64{4, 0}},
				{"read", 1, []uint64{3, 4096}}, {"write", 1, []uint64{3, 4096}},
			},
		},
		{
			Name: "moses", Desc: "statistical machine translation system",
			ServiceMean: sim.FromMicros(2600), ServiceSigma: 0.6,
			SyscallsPerReq: 28,
			Mix: []MixEntry{
				{"mmap", 4, []uint64{1 << 20, 0}}, {"munmap", 1.2, []uint64{1 << 20}},
				{"brk", 3, []uint64{1 << 18}}, {"madvise", 0.6, []uint64{1 << 20, 4}},
				{"read", 4, []uint64{3, 32768}}, {"futex", 3, []uint64{11, 1}},
				{"stat", 1, nil},
			},
		},
		{
			Name: "sphinx", Desc: "speech recognition system",
			ServiceMean: sim.FromMicros(3800), ServiceSigma: 0.6,
			SyscallsPerReq: 32,
			Mix: []MixEntry{
				{"mmap", 4, []uint64{1 << 19, 0}}, {"munmap", 1.4, []uint64{1 << 19}},
				{"brk", 2, []uint64{1 << 17}}, {"read", 5, []uint64{3, 32768}},
				{"futex", 2, []uint64{13, 1}}, {"mprotect", 0.5, []uint64{1 << 16, 1}},
			},
		},
		{
			Name: "img-dnn", Desc: "handwriting image recognition program",
			ServiceMean: sim.FromMicros(750), ServiceSigma: 0.45,
			SyscallsPerReq: 9,
			Mix: []MixEntry{
				{"read", 3, []uint64{3, 8192}}, {"futex", 3, []uint64{5, 1}},
				{"mmap", 1, []uint64{1 << 16, 0}}, {"write", 1, []uint64{3, 8192}},
			},
			ExitsPerReq: 1,
		},
		{
			Name: "specjbb", Desc: "Java middleware benchmark",
			ServiceMean: sim.FromMicros(550), ServiceSigma: 0.5,
			SyscallsPerReq: 9,
			Mix: []MixEntry{
				{"futex", 3, []uint64{5, 1}}, {"futex", 2, []uint64{7, 2}},
				{"mprotect", 0.08, []uint64{1 << 18, 1}}, {"mmap", 0.6, []uint64{1 << 18, 0}},
				{"madvise", 0.08, []uint64{1 << 18, 4}},
				{"read", 1, []uint64{3, 4096}}, {"write", 1, []uint64{3, 4096}},
			},
			ExitsPerReq: 2,
		},
		{
			Name: "silo", Desc: "in-memory transactional database",
			ServiceMean: sim.FromMicros(160), ServiceSigma: 0.4,
			SyscallsPerReq: 3,
			Mix: []MixEntry{
				{"futex", 2, []uint64{3, 2}}, {"read", 1, []uint64{3, 2048}},
				{"write", 1, []uint64{3, 2048}},
			},
			// OLTP working sets thrash guest TLBs and have exit-prone code
			// paths (§6.3): hardware virtualization overhead dominates.
			ExitsPerReq: 9,
		},
		{
			Name: "shore", Desc: "disk-based transactional database",
			ServiceMean: sim.FromMicros(420), ServiceSigma: 0.5,
			SyscallsPerReq: 11,
			Mix: []MixEntry{
				{"pread64", 3, []uint64{3, 8192}}, {"pwrite64", 2, []uint64{3, 8192}},
				{"fsync", 0.7, nil}, {"futex", 2, []uint64{5, 1}}, {"lseek", 2, nil},
			},
			IOPerReq: 1.6,
		},
	}
	for _, a := range apps {
		a.mix = resolve(a.Mix)
	}
	return apps
}

// AppByName returns the named app profile, or nil.
func AppByName(name string) *App {
	for _, a := range Apps() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// EstServiceTime returns a rough per-request total service estimate used to
// pick the arrival rate for ~75% utilization: user compute plus a nominal
// per-syscall and per-IO kernel cost.
func (a *App) EstServiceTime() sim.Time {
	est := a.ServiceMean +
		sim.Time(a.SyscallsPerReq)*sim.FromMicros(2.5) +
		sim.Time(a.IOPerReq*float64(sim.FromMicros(110)))
	return est
}

// CompileRequest builds one request's micro-op sequence into a list of
// its own: the compile Worker.Serve runs, for callers that time or inspect
// one request alone. It allocates the list and its argument scratch.
func (a *App) CompileRequest(ctx *syscalls.Ctx, src *rng.Source) []kernel.Op {
	var req request
	a.compile(ctx, &req, src)
	return req.ops.Ops()
}

// request is one request's op list and the argument scratch its calls
// compile from. Both escape into the syscall compilers.
type request struct {
	ops  kernel.OpList
	args [maxArgs]uint64
}

// compile appends one request to req.ops: the user-space service time
// sliced around the request's kernel entries. The ops run as a single
// kernel task on one worker core. (User-space compute is modeled as kernel
// ops with zero lock footprint — it consumes the core and is subject to
// the same steal, which is physically right.)
func (a *App) compile(ctx *syscalls.Ctx, req *request, src *rng.Source) {
	mix := a.mix
	if mix == nil { // an App not built by Apps
		mix = resolve(a.Mix)
	}
	service := sim.Time(src.LogNormal(logMeanFor(a.ServiceMean, a.ServiceSigma), a.ServiceSigma))
	slices := a.SyscallsPerReq + 1
	per := service / sim.Time(slices)

	ios := int(a.IOPerReq)
	l := &req.ops
	l.Grow(slices + a.SyscallsPerReq*opsPerCall + ios + 1)
	for i := 0; i < a.SyscallsPerReq; i++ {
		// User-space slice; spread the app's exit load across slices.
		exits := 0
		if a.ExitsPerReq > 0 && i < a.ExitsPerReq {
			exits = 1
		}
		l.UserCompute(per, exits)
		m := &mix.calls[rng.WeightedPick(src, mix.weights)]
		full := req.args[:len(m.spec.Args)]
		copy(full, m.pinned)
		for j := len(m.pinned); j < len(full); j++ {
			full[j] = src.Uint64() % m.spec.Args[j].GenDomain()
		}
		m.spec.CompilePrepared(ctx, l, full)
	}
	l.UserCompute(service-per*sim.Time(a.SyscallsPerReq), 0)
	// Disk residency.
	if src.Float64() < a.IOPerReq-float64(ios) {
		ios++
	}
	for i := 0; i < ios; i++ {
		l.BlockIO(0)
	}
}

// opsPerCall sizes a request's op list: the micro-ops one mix syscall
// compiles to, with room to spare (over 5,000 requests of each app, the
// largest averaged 5.1 per call). maxArgs is the widest call a mix may
// use, as in the Linux syscall ABI.
const (
	opsPerCall = 6
	maxArgs    = 6
)

// logMeanFor returns the lognormal mu such that the distribution's mean
// equals mean.
func logMeanFor(mean sim.Time, sigma float64) float64 {
	return math.Log(float64(mean)) - sigma*sigma/2
}
