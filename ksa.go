// Package ksa reproduces "Reducing Kernel Surface Areas for Isolation and
// Scalability" (Zahka, Kocoloski, Keahey — ICPP 2019) as a pure-Go library.
//
// The library contains a deterministic discrete-event simulated Linux-style
// kernel (internal/kernel), a 200-call system-call model across the
// paper's six categories (plus network and modern *at/xattr families) (internal/syscalls), a coverage-guided corpus
// generator standing in for Syzkaller (internal/fuzz), the varbench
// barrier-synchronized measurement harness (internal/varbench), native /
// KVM / Docker environment models (internal/platform), the tailbench
// application workloads (internal/tailbench), and a 64-node BSP cluster
// harness (internal/cluster). See DESIGN.md for the system inventory and
// the paper-to-module substitution map.
//
// This package is the public facade: build a corpus, deploy it on an
// environment, and regenerate any of the paper's tables and figures.
//
//	c, _ := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 1, TargetPrograms: 40})
//	env := ksa.NewNativeEnvironment(ksa.NewEngine(), ksa.PaperMachine, 1)
//	res := ksa.RunVarbench(env, c, ksa.VarbenchOptions{Iterations: 10})
//	fmt.Println(res.P99Breakdown().Row())
//
// Everything is seeded: two runs with the same seeds are bit-identical.
package ksa

import (
	"context"
	"io"
	"net/http"
	"os/exec"
	"time"

	"ksa/internal/cluster"
	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/daemon"
	"ksa/internal/distsweep"
	"ksa/internal/fault"
	"ksa/internal/fuzz"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/rng"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
	"ksa/internal/tailbench"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// Re-exported fundamental types.
type (
	// Engine is the deterministic discrete-event executor all simulations
	// run on.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Machine describes a physical host to partition.
	Machine = platform.Machine
	// Environment is a deployed configuration (native / VMs / containers).
	Environment = platform.Environment
	// EnvKind discriminates environment flavors.
	EnvKind = platform.EnvKind
	// Corpus is a collection of system-call programs.
	Corpus = corpus.Corpus
	// Program is one sequence of system calls.
	Program = corpus.Program
	// CorpusOptions configures coverage-guided generation.
	CorpusOptions = fuzz.Options
	// VarbenchOptions configures the measurement harness.
	VarbenchOptions = varbench.Options
	// VarbenchResult holds per-call-site latency distributions.
	VarbenchResult = varbench.Result
	// Breakdown is a Table 2/3-style decade-bucket summary.
	Breakdown = stats.Breakdown
	// App is a tailbench application profile.
	App = tailbench.App
	// ClusterConfig configures a Figure 4-style cluster run.
	ClusterConfig = cluster.Config
	// ClusterResult is a cluster run's outcome.
	ClusterResult = cluster.Result
	// Scale sets experiment sizes for the table/figure runners.
	Scale = core.Scale
	// TraceOptions configures kernel tracing (set VarbenchOptions.Trace).
	TraceOptions = trace.Options
	// Tracer is the kernel observer that aggregates one kernel's lockstat
	// and blame records.
	Tracer = trace.Tracer
	// BlameRecord decomposes one over-threshold task's wall time.
	BlameRecord = trace.BlameRecord
	// CauseTotal aggregates one blame cause across records.
	CauseTotal = trace.CauseTotal
	// BlameResult is a traced varbench run (RunBlame).
	BlameResult = core.BlameResult
	// EnvSpec names one environment of a sweep ("native", "kvm-8", ...).
	EnvSpec = core.EnvSpec
	// SweepOptions configures RunSweep's environment × trial grid.
	SweepOptions = core.SweepOptions
	// SweepResult holds a sweep's runs in job-key order plus fan-out
	// metrics.
	SweepResult = core.SweepResult
	// SweepRun is one (environment, trial) cell of a sweep.
	SweepRun = core.SweepRun
	// RunnerMetrics reports a parallel fan-out's wall/queue accounting.
	RunnerMetrics = runner.Metrics
	// FaultPlan is a deterministic interference-injection scenario
	// (set VarbenchOptions.Faults / SweepOptions.Faults / ClusterConfig.Faults).
	FaultPlan = fault.Plan
	// FaultInjector is one interference source within a plan.
	FaultInjector = fault.Injector
	// InterferenceResult is the fault-injection surface-area ablation.
	InterferenceResult = core.InterferenceResult
	// InterferenceRow is one environment's amplification under a plan.
	InterferenceRow = core.InterferenceRow
	// SpecializeResult is the profile-guided specialization experiment's
	// output: reduction shape, soundness proof, and latency comparison.
	SpecializeResult = core.SpecializeResult
	// IsolationResult is the tenant×lock contention experiment's output:
	// per-environment isolation scores and top-leaking-lock reports.
	IsolationResult = core.IsolationResult
	// IsolationRow is one environment's isolation score and leak summary.
	IsolationRow = core.IsolationRow
	// WorkloadProfile is what a corpus was observed to reach — the input
	// to kernel specialization (EnvSpec.Profile).
	WorkloadProfile = specialize.Profile
	// KernelReduction is a generated reduced-kernel configuration
	// (kernel.Config.Reduction).
	KernelReduction = kernel.Reduction
	// ResultCache is the content-addressed, disk-backed store for
	// deterministic results (set Scale.Cache / SweepOptions via Scale).
	ResultCache = resultcache.Store
	// CacheStats is a snapshot of a result cache's hit/miss/bytes counters.
	CacheStats = resultcache.Stats
	// CacheKey identifies one cached result by its complete input set.
	CacheKey = resultcache.Key
	// Experiment is one entry of the experiment table (Experiments).
	Experiment = core.Experiment
	// ExperimentOutput is one experiment run's rendered text, CSV, and
	// typed result.
	ExperimentOutput = core.Output
)

// Environment kinds.
const (
	KindNative     = platform.KindNative
	KindVMs        = platform.KindVMs
	KindContainers = platform.KindContainers
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// PaperMachine is the paper's evaluation host: 64 cores / 32 GB (Table 1).
var PaperMachine = platform.PaperMachine

// ExplicitZero requests a literal zero for a VarbenchOptions field whose
// zero value selects a default (Iterations, BarrierHop, ReleaseSkewMean).
const ExplicitZero = varbench.ExplicitZero

// NewEngine returns a fresh virtual-time engine.
func NewEngine() *Engine { return sim.NewEngine() }

// EventsExecuted returns the process-wide count of simulation events
// dispatched so far (flushed once per completed engine run). Sampling it
// around an experiment turns wall-clock time into events/sec — the
// simulator's throughput metric — without a profiler.
func EventsExecuted() uint64 { return sim.TotalExecuted() }

// GenerateCorpus runs the coverage-guided generator (the Syzkaller analog)
// and returns the corpus plus generation statistics.
func GenerateCorpus(opts CorpusOptions) (*Corpus, fuzz.Stats) {
	return fuzz.Generate(opts)
}

// WriteCorpus serializes a corpus in the text format.
func WriteCorpus(w io.Writer, c *Corpus) error {
	return corpus.WriteText(w, c, syscalls.Default())
}

// ReadCorpus parses a corpus from the text format.
func ReadCorpus(r io.Reader) (*Corpus, error) {
	return corpus.ParseText(r, syscalls.Default())
}

// NewNativeEnvironment builds a bare-metal deployment: one kernel managing
// the whole machine.
func NewNativeEnvironment(eng *Engine, m Machine, seed uint64) *Environment {
	return platform.Native(eng, m, rng.New(seed))
}

// NewVMEnvironment partitions the machine into n KVM-style VMs (n must
// divide the core count).
func NewVMEnvironment(eng *Engine, m Machine, n int, seed uint64) *Environment {
	return platform.VMs(eng, m, n, rng.New(seed))
}

// NewContainerEnvironment deploys n Docker-style containers over one shared
// kernel.
func NewContainerEnvironment(eng *Engine, m Machine, n int, seed uint64) *Environment {
	return platform.Containers(eng, m, n, rng.New(seed))
}

// RunVarbench deploys the corpus on every core of the environment with
// global barrier synchronization and returns per-call-site latency
// distributions.
func RunVarbench(env *Environment, c *Corpus, opts VarbenchOptions) *VarbenchResult {
	return varbench.Run(env, c, opts)
}

// OpenResultCache opens (creating if needed) the content-addressed result
// store rooted at dir. Deterministic runs are memoized in it: set it as
// Scale.Cache or pass it to RunVarbenchCached, and repeated or interrupted
// experiments reuse every cell whose inputs are unchanged.
func OpenResultCache(dir string) (*ResultCache, error) { return resultcache.Open(dir) }

// CacheCodeVersion is the code-version salt mixed into every cache key;
// bumping it (done whenever a change alters simulation bits) invalidates
// all prior entries by construction.
const CacheCodeVersion = resultcache.CodeVersion

// RunVarbenchCached is RunVarbench through the result cache: the
// environment is built from its spec with opts.Seed, the cache is
// consulted before simulating, and fresh results are written through.
// cache may be nil (plain run); verify recomputes every hit and asserts
// byte-equality with the stored entry. Traced runs bypass the cache.
func RunVarbenchCached(cache *ResultCache, verify bool, spec EnvSpec, m Machine,
	c *Corpus, opts VarbenchOptions) *VarbenchResult {
	return core.RunVarbenchCached(cache, verify, spec, m, c, opts)
}

// RenderBlame formats a traced varbench result's blame report; top bounds
// the worst-record list.
func RenderBlame(res *VarbenchResult, top int) string {
	return core.RenderBlame(res, top)
}

// Apps returns the paper's Table 4 tailbench workload profiles.
func Apps() []*App { return tailbench.Apps() }

// AppByName returns the named tailbench profile, or nil.
func AppByName(name string) *App { return tailbench.AppByName(name) }

// RunCluster executes a Figure 4-style BSP cluster run.
func RunCluster(cfg ClusterConfig) ClusterResult { return cluster.Run(cfg) }

// RunSweep executes an environment × corpus × trial grid of independent
// varbench runs, fanned across Scale.Parallel workers. Results are merged
// in job-key order and every run's seed is derived from its key, so the
// output is bit-identical for every worker count. On cancellation queued
// cells are dropped, in-flight cells drain, and the completed prefix stays
// bit-identical to a serial run (so a cached sweep resumes from there).
func RunSweep(ctx context.Context, o SweepOptions) (SweepResult, error) {
	return core.RunSweep(ctx, o)
}

// DeriveSeed maps (root seed, job key) to the job's private nonzero seed —
// the derivation RunSweep uses, exported so external tooling can reproduce
// any single cell of a sweep in isolation.
func DeriveSeed(root uint64, key string) uint64 { return runner.DeriveSeed(root, key) }

// DefaultScale returns the standard experiment scale; QuickScale a smoke
// scale.
func DefaultScale() Scale { return core.DefaultScale() }

// QuickScale returns the test/smoke experiment scale.
func QuickScale() Scale { return core.QuickScale() }

// Experiment runners: each regenerates one of the paper's tables/figures
// and takes a context first (no new cell starts once it is done).
var (
	// VMConfigTable renders Table 1.
	VMConfigTable = core.VMConfigTable
	// RunTable2 reproduces Table 2 (median/p99/max decade breakdowns).
	RunTable2 = core.RunTable2
	// RunFigure2 reproduces Figure 2 (per-category p99 violins vs VM count).
	RunFigure2 = core.RunFigure2
	// RunTable3 reproduces Table 3 (worst case vs container count).
	RunTable3 = core.RunTable3
	// RunFigure3 reproduces Figure 3 (single-node tail latency).
	RunFigure3 = core.RunFigure3
	// RunFigure4 reproduces Figure 4 (64-node cluster runtimes).
	RunFigure4 = core.RunFigure4
	// RunDensity sweeps the high-density serverless scenario: Poisson
	// cold-start churn of ephemeral tenants per isolation surface.
	RunDensity = core.RunDensity
	// RunBlame deploys the corpus on one environment with tracing enabled
	// and returns per-site blame attribution alongside the latency
	// distributions (cmd/ksatrace's engine).
	RunBlame = core.RunBlame
	// Experiments is the experiment table ksaexp and ksad dispatch
	// through, in canonical order.
	Experiments = core.Experiments
	// LookupExperiment returns the named table entry, or an error listing
	// the valid names.
	LookupExperiment = core.LookupExperiment
	// ProfileCorpus derives a corpus's deterministic workload profile.
	ProfileCorpus = specialize.ProfileCorpus
	// SpecializeKernel generates the reduced kernel configuration for a
	// profile (nil table = the default syscall table).
	SpecializeKernel = specialize.Specialize
	// FaultPresets lists the built-in interference plan names.
	FaultPresets = fault.Presets
	// FaultPreset returns a built-in plan by name.
	FaultPreset = fault.Preset
	// DecodeFaultPlan parses a plan from its canonical text form.
	DecodeFaultPlan = fault.Decode
)

// KindLightVMs selects the lightweight-VM (Firecracker/Kata-class)
// environment in SingleNodeConfig/ClusterConfig-style uses.
const KindLightVMs = platform.KindLightVMs

// KindSpecialized selects the MultiK-style per-tenant specialized-kernel
// environment ("specialized-N" in sweep specs): N profile-generated
// reduced kernels partitioning the machine.
const KindSpecialized = platform.KindSpecialized

// Daemon layer (cmd/ksad): the long-running experiment service and its
// HTTP API — jobs multiplex onto one shared pool, warmed jobs are served
// from the result cache without occupying it, and per-job events stream
// over SSE with replay. Results stay bit-identical to local runs.
type (
	// Daemon owns the job table, shared pool, and per-job event logs.
	Daemon = daemon.Daemon
	// DaemonConfig configures NewDaemon (pool size, cache, logging).
	DaemonConfig = daemon.Config
	// DaemonClient is the Go client for the ksad HTTP API.
	DaemonClient = daemon.Client
	// JobSpec is the wire form of a job submission.
	JobSpec = daemon.JobSpec
	// JobInfo is the API view of a job's state and result.
	JobInfo = daemon.JobInfo
	// JobEvent is one entry of a job's replayable event stream.
	JobEvent = daemon.Event
)

// NewDaemon starts an experiment daemon (close it when done).
func NewDaemon(cfg DaemonConfig) *Daemon { return daemon.New(cfg) }

// NewDaemonRouter binds the versioned ksad HTTP API to a daemon.
func NewDaemonRouter(d *Daemon) http.Handler { return daemon.NewRouter(d) }

// ParseEnvSpec parses "native", "kvm-8", "docker-64", "lightvm-16" — the
// inverse of EnvSpec.String, as accepted by sweep jobs on the wire.
func ParseEnvSpec(s string) (EnvSpec, error) { return core.ParseEnvSpec(s) }

// Distributed sweep layer (internal/distsweep): shard one sweep grid
// across worker processes — locally spawned ksad daemons or remote URLs —
// and merge cells in job-key order to the exact digest of a serial run.
// Workers coordinate through the shared result cache's advisory leases;
// a killed worker's cells are stolen after its lease TTL.
type (
	// DistSweepSpec is the distributed sweep's wire-friendly grid form.
	DistSweepSpec = distsweep.Spec
	// DistSweepOptions configures RunDistSweep (fleet, owner, lease TTL).
	DistSweepOptions = distsweep.Options
	// DistSweepResult is the merged sweep plus dispatch accounting.
	DistSweepResult = distsweep.Result
	// WorkerFleet is a set of locally spawned worker processes.
	WorkerFleet = distsweep.Fleet
	// CellSpec is the wire form of one worker-mode cell request.
	CellSpec = daemon.CellSpec
	// CellResult is the wire form of one completed cell.
	CellResult = daemon.CellResult
)

// RunDistSweep executes a sweep across the worker fleet; the merged
// result is bit-identical to a serial run for any worker count and any
// pattern of worker death that leaves one worker alive.
func RunDistSweep(ctx context.Context, o DistSweepOptions) (DistSweepResult, error) {
	return distsweep.Run(ctx, o)
}

// SpawnWorkerFleet starts n local worker processes (newCmd builds worker
// i's command, typically a ksad invocation with "-listen 127.0.0.1:0")
// and waits for each to announce its bound address on stderr.
func SpawnWorkerFleet(n int, newCmd func(i int) *exec.Cmd, readyTimeout time.Duration,
	logf func(format string, args ...any)) (*WorkerFleet, error) {
	return distsweep.SpawnFleet(n, newCmd, readyTimeout, logf)
}
