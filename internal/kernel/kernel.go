package kernel

import (
	"fmt"

	"ksa/internal/rng"
	"ksa/internal/sim"
)

// Kernel is one simulated OS kernel instance managing a set of cores and an
// amount of memory — its surface area. Multiple kernels can coexist on one
// sim.Engine (the VM configurations); they share nothing except, under
// virtualization, the host block device.
type Kernel struct {
	eng *sim.Engine
	cfg Config
	par Params

	cores     []*core
	locks     []sim.Lock
	ipiBus    *sim.Lock
	blockDev  *sim.Semaphore
	busyCores int

	// Kernel-work-rate tracking: housekeeping (writeback, reclaim, slab
	// reaping) is generated by kernel activity, so burst lengths scale with
	// the fraction of machine time recently spent in kernel code. kwAccum
	// sums non-user compute charged since the current window opened; kwRate
	// is the smoothed per-core rate in [0, ~1].
	kwAccum     sim.Time
	kwWindowEnd sim.Time
	kwRate      float64

	// Cache-pollution tracking: breadth-seeking tenants (the syscall
	// corpus touches new files, mappings, and pipes constantly) evict other
	// tenants' hot state from the shared page and dentry caches. Pollution
	// units are syscalls issued by polluting tenants; the rate is windowed
	// per core.
	polAccum     float64
	polWindowEnd sim.Time
	polRate      float64

	// obs are the attached observers (see Observer); every hook site
	// reports to each of them in one pass.
	obs []Observer

	// inj, when non-nil, tracks interference injected by internal/fault so
	// the executor can attribute injected vs emergent wait. With inj nil the
	// executor follows the exact pre-injection code paths.
	inj *injectState

	stats Stats
}

// injectState is per-kernel bookkeeping for the fault-injection subsystem.
// The kernel never schedules injections itself — internal/fault drives the
// hold/storm machinery — but attribution has to live here, on the lock
// grant path.
type injectState struct {
	// lockHoldAccum[id] is the cumulative virtual time injected holders
	// have kept lock id, bumped at each injected release. A waiter
	// snapshots it at request time; the delta at grant, clamped to its
	// wait, is the wait attributable to injection (exact when injected
	// holds were the sole cause on this FIFO lock; clamped otherwise).
	lockHoldAccum []sim.Time
	// jitter marks that at least one injected noise stream was installed,
	// so Quiet kernels still absorb injected bursts.
	jitter bool
}

// Stats counts notable kernel activity; useful for tests, introspection,
// and benchmark reporting.
type Stats struct {
	TasksRun    uint64
	IPIs        uint64
	IPITargets  uint64
	BlockIOs    uint64
	VMExits     uint64
	Sleeps      uint64
	NoiseBursts uint64
	NoiseStolen sim.Time
	TickStolen  sim.Time

	// LockWait totals the time tasks spent queued on kernel locks and
	// address-space semaphores; LockHolds counts completed kernel lock
	// holds. Both are maintained unconditionally and match an attached
	// tracer's lockstat totals exactly.
	LockWait  sim.Time
	LockHolds uint64

	// Injection counters (zero unless internal/fault is attached).
	// InjHolds/InjHoldTime count completed injected lock holds;
	// InjLockWait is task wait attributed to injected holders (subset of
	// LockWait); InjBursts/InjStolen count injected CPU steal charged to
	// on-CPU work (jitter bursts and IPI-storm handler debt).
	InjHolds    uint64
	InjHoldTime sim.Time
	InjLockWait sim.Time
	InjBursts   uint64
	InjStolen   sim.Time

	// Specialization counters (zero unless Config.Reduction is set).
	// UnmappedCalls counts syscall dispatches that faulted because the
	// number is outside the specialized kernel's profile (the ENOSYS path);
	// OutOfProfileLocks counts acquisitions of lock slabs the profile did
	// not retain (the acquisition still succeeds — soundness — but the
	// escape from the profiled surface is recorded).
	UnmappedCalls     uint64
	OutOfProfileLocks uint64
}

// String renders the counters compactly for debugging.
func (s Stats) String() string {
	base := fmt.Sprintf(
		"stats[tasks=%d ipis=%d targets=%d blockio=%d vmexits=%d sleeps=%d lockholds=%d lockwait=%v bursts=%d noise=%v tick=%v",
		s.TasksRun, s.IPIs, s.IPITargets, s.BlockIOs, s.VMExits, s.Sleeps,
		s.LockHolds, s.LockWait, s.NoiseBursts, s.NoiseStolen, s.TickStolen)
	if s.InjHolds > 0 || s.InjBursts > 0 || s.InjStolen > 0 {
		base += fmt.Sprintf(" injholds=%d injhold=%v injwait=%v injbursts=%d injstolen=%v",
			s.InjHolds, s.InjHoldTime, s.InjLockWait, s.InjBursts, s.InjStolen)
	}
	if s.UnmappedCalls > 0 || s.OutOfProfileLocks > 0 {
		base += fmt.Sprintf(" unmapped=%d ooplocks=%d", s.UnmappedCalls, s.OutOfProfileLocks)
	}
	return base + "]"
}

// noiseStream is one source of CPU steal on a core: the guest kernel's own
// housekeeping, or — for virtualized kernels — the host's housekeeping and
// interrupt load on the pinned pCPU.
type noiseStream struct {
	rng  *rng.Source
	next sim.Time // absolute start of the next burst
	len  sim.Time // its length

	// loadScaled marks streams whose burst lengths shrink when the kernel
	// is mostly idle: guest housekeeping (writeback storms, reclaim,
	// compaction) is generated by activity, so a kernel whose cores sit
	// idle produces proportionally shorter bursts. Host-residency streams
	// are not load-scaled (the host's behavior does not depend on what this
	// guest does).
	loadScaled bool

	// kind labels the stream for steal-blame attribution.
	kind StealKind

	// injected marks streams installed by internal/fault: they dose even
	// Quiet kernels, and their steal lands in the injection counters.
	injected bool

	gapMean  sim.Time
	minBurst sim.Time
	maxBurst sim.Time
	alpha    float64
	// perBurstExtra is added to every burst absorbed while running (host
	// interrupts cost a VM exit on top of the handler itself).
	perBurstExtra sim.Time
}

// advance draws the next burst strictly after t.
func (ns *noiseStream) advance(t sim.Time) {
	gap := sim.Time(ns.rng.Exp(float64(ns.gapMean)))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	ns.next = t + gap
	ns.len = sim.Time(ns.rng.BoundedPareto(float64(ns.minBurst), float64(ns.maxBurst), ns.alpha))
}

// core is one CPU managed by this kernel.
type core struct {
	id    int
	rng   *rng.Source
	busy  bool
	queue []*Task // tasks waiting for the CPU (FIFO)

	// Housekeeping noise streams (guest kernel; plus host residency for
	// virtualized kernels), drawn lazily.
	noise []*noiseStream

	// pendingSteal is CPU time owed to interrupt handlers (IPI/TLB flush)
	// triggered by other cores; it is consumed by the next on-CPU work.
	pendingSteal sim.Time

	// pendingInj is handler debt from injected IPI/TLB-shootdown storms,
	// kept apart from pendingSteal so the charge is attributed as injected.
	pendingInj sim.Time
}

// Task is one kernel entry: a micro-op sequence plus completion callback.
// A task may be resubmitted (with fresh Ops) after its OnDone callback has
// fired — Submit re-arms all execution state — so sequential issuers like
// the corpus runner keep one task alive instead of allocating per call.
type Task struct {
	// Ops is the compiled micro-op sequence.
	Ops []Op
	// AddrSpace is the process's mmap_sem; tasks of the same process share
	// one. Nil gets a private (uncontended) semaphore.
	AddrSpace *sim.RWLock
	// OnDone receives the task's total latency (queue wait included).
	OnDone func(elapsed sim.Time)
	// Label identifies the task in trace output (e.g. "p3/c7 openat").
	// Only observers read it.
	Label string
	// Tenant is the submitting tenant's stable identity, reported to
	// observers (blame records, isolation accounting). The harness assigns
	// one tenant per machine core; direct kernel users that leave it zero
	// run as tenant 0.
	Tenant int

	opIdx     int
	start     sim.Time
	lockStack []LockID
	lockAcqAt []sim.Time // grant times of held locks, kept while observed
	kern      *Kernel
	core      *core
	// cont is the reusable "run my next op" continuation, built on first
	// submission. Ops that merely elapse time schedule it directly, so the
	// executor allocates no closure per compute/sleep op.
	cont func()
}

// New constructs a kernel on eng. The rng source seeds per-core noise
// streams; pass a Split of the experiment seed.
func New(eng *sim.Engine, cfg Config, src *rng.Source) *Kernel {
	if cfg.Cores < 1 {
		panic("kernel: config needs at least one core")
	}
	// A specialized kernel derives its surface-scaled defaults from the
	// profiled cache footprint (MemGB * MemScale), then drops the untouched
	// housekeeping daemons: bursts arrive 1/scale as often and cap at scale
	// times the full-surface maximum. Cache hit probabilities are left
	// untouched deliberately — they gate rng draws inside compiled op
	// streams, and changing them would break the soundness contract that a
	// specialized kernel replays in-profile workloads bit-identically.
	effMem := cfg.MemGB
	if red := cfg.Reduction; red != nil {
		if s := red.MemScale; s > 0 && s < 1 {
			effMem *= s
		}
	}
	cfg.Params = cfg.Params.withDefaults(cfg.Cores, effMem)
	if red := cfg.Reduction; red != nil {
		if s := red.HousekeepingScale; s > 0 && s < 1 {
			cfg.Params.NoiseMeanGap = sim.Time(float64(cfg.Params.NoiseMeanGap) / s)
			cfg.Params.NoiseMaxBurst = sim.Time(float64(cfg.Params.NoiseMaxBurst) * s)
		}
	}
	if cfg.Virt != nil && cfg.Virt.ComputeDilation == 0 {
		cfg.Virt.ComputeDilation = 1
	}
	k := &Kernel{eng: eng, cfg: cfg, par: cfg.Params}
	k.locks = sim.NewLockSlab(eng, cfg.Name, int(lockTotalCount))
	k.ipiBus = sim.NewLock(eng, cfg.Name+"/ipibus")
	if cfg.SharedBlockDev != nil {
		k.blockDev = cfg.SharedBlockDev
	} else {
		k.blockDev = sim.NewSemaphore(eng, cfg.Name+"/blkdev", k.par.BlockQueueDepth)
	}
	k.cores = make([]*core, cfg.Cores)
	for i := range k.cores {
		c := &core{id: i, rng: src.Split(uint64(i) + 1)}
		guest := &noiseStream{
			rng:        c.rng.Split(0x6e6f),
			gapMean:    k.par.NoiseMeanGap,
			minBurst:   k.par.NoiseMinBurst,
			maxBurst:   k.par.NoiseMaxBurst,
			alpha:      k.par.NoiseAlpha,
			loadScaled: true,
			kind:       StealHousekeeping,
		}
		guest.advance(0)
		c.noise = []*noiseStream{guest}
		if v := cfg.Virt; v != nil && v.HostNoiseGap > 0 {
			host := &noiseStream{
				rng:           c.rng.Split(0x686f),
				gapMean:       v.HostNoiseGap,
				minBurst:      v.HostNoiseMin,
				maxBurst:      v.HostNoiseMax,
				alpha:         v.HostNoiseAlpha,
				perBurstExtra: v.ExitCost,
				kind:          StealHostResidency,
			}
			if host.alpha == 0 {
				host.alpha = 2.5
			}
			host.advance(0)
			c.noise = append(c.noise, host)
		}
		k.cores[i] = c
	}
	return k
}

// Name returns the kernel's configured name.
func (k *Kernel) Name() string { return k.cfg.Name }

// NumCores returns the number of cores this kernel manages.
func (k *Kernel) NumCores() int { return k.cfg.Cores }

// MemGB returns the memory this kernel manages.
func (k *Kernel) MemGB() float64 { return k.cfg.MemGB }

// Virtualized reports whether this kernel runs as a VM guest.
func (k *Kernel) Virtualized() bool { return k.cfg.Virt != nil }

// Params returns the effective calibration constants.
func (k *Kernel) Params() Params { return k.par }

// Stats returns a snapshot of the activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Reduction returns the surface reduction this kernel was specialized with,
// or nil for a full-surface kernel.
func (k *Kernel) Reduction() *Reduction { return k.cfg.Reduction }

// SyscallMapped reports whether syscall number n is in this kernel's
// dispatch table. Full-surface kernels map everything.
func (k *Kernel) SyscallMapped(n uint16) bool {
	if k.cfg.Reduction == nil {
		return true
	}
	return k.cfg.Reduction.SyscallMapped(n)
}

// RecordUnmappedCall books one faulted dispatch of an out-of-profile
// syscall (the corpus runner's ENOSYS path calls it).
func (k *Kernel) RecordUnmappedCall() { k.stats.UnmappedCalls++ }

// Lock exposes a shared lock for introspection (contention counters).
func (k *Kernel) Lock(id LockID) *sim.Lock { return &k.locks[id] }

// EnableInjection arms the injected-wait attribution machinery. Call once
// before internal/fault starts holding this kernel's locks; without it
// injected and emergent wait are indistinguishable. Idempotent.
func (k *Kernel) EnableInjection() {
	if k.inj == nil {
		k.inj = &injectState{lockHoldAccum: make([]sim.Time, int(lockTotalCount))}
	}
}

// InjectionEnabled reports whether EnableInjection has been called.
func (k *Kernel) InjectionEnabled() bool { return k.inj != nil }

// RecordInjectedHold books one completed injected hold of lock id lasting
// d: it feeds the waiter-attribution accumulator and the Stats counters.
// The caller (internal/fault) invokes it at release time.
func (k *Kernel) RecordInjectedHold(id LockID, d sim.Time) {
	if k.inj == nil {
		panic("kernel: RecordInjectedHold without EnableInjection")
	}
	k.inj.lockHoldAccum[id] += d
	k.stats.InjHolds++
	k.stats.InjHoldTime += d
}

// InjectIPIStorm charges every core perCore of interrupt-handler debt, the
// way an injected TLB-shootdown broadcast would; the debt is stolen from
// each core's next on-CPU work and attributed as injected steal.
func (k *Kernel) InjectIPIStorm(perCore sim.Time) {
	if perCore <= 0 {
		return
	}
	for _, c := range k.cores {
		c.pendingInj += perCore
	}
}

// AddJitterStream installs an injected timer-jitter noise stream on every
// core: bursts with exponential gaps (mean gapMean) and bounded-Pareto
// lengths in [minBurst, maxBurst] dosed onto on-CPU work. Streams are
// sampled lazily — they schedule no engine events — and, unlike the
// kernel's own housekeeping, they dose Quiet kernels too (that is the
// point: a controlled noise source on an otherwise silent kernel). src is
// split per core so results do not depend on core visit order.
func (k *Kernel) AddJitterStream(src *rng.Source, gapMean, minBurst, maxBurst sim.Time, alpha float64) {
	k.EnableInjection()
	k.inj.jitter = true
	for i, c := range k.cores {
		ns := &noiseStream{
			rng:      src.Split(uint64(i) + 1),
			gapMean:  gapMean,
			minBurst: minBurst,
			maxBurst: maxBurst,
			alpha:    alpha,
			kind:     StealInjJitter,
			injected: true,
		}
		ns.advance(k.eng.Now())
		c.noise = append(c.noise, ns)
	}
}

// BlockDevice exposes the kernel's block device queue for introspection.
func (k *Kernel) BlockDevice() *sim.Semaphore { return k.blockDev }

// HostBlockDevice returns the host block queue a guest kernel relays its
// I/O through, or nil when there is none.
func (k *Kernel) HostBlockDevice() *sim.Semaphore {
	if v := k.cfg.Virt; v != nil {
		return v.HostBlockQueue
	}
	return nil
}

// SurfaceArea returns a scalar summary of the kernel surface area used in
// reports: cores plus memory expressed in GB. The paper treats surface area
// as multi-dimensional; the scalar is only for sorting configurations.
func (k *Kernel) SurfaceArea() float64 { return float64(k.cfg.Cores) + k.cfg.MemGB }

// Rng returns core c's private random source (used by syscall compilers for
// per-invocation branch decisions so that all randomness stays seeded).
func (k *Kernel) Rng(coreID int) *rng.Source { return k.cores[coreID].rng }

// Pollute records cache-polluting activity (units ≈ syscalls touching
// fresh kernel objects). The corpus runner calls it when acting as a
// co-tenant; see CachePressure.
func (k *Kernel) Pollute(units float64) {
	k.polAccum += units
}

// polWindow is the pollution-rate sampling window.
const polWindow = 5 * sim.Millisecond

// CachePressure returns the current cross-tenant cache pressure in [0, 1]:
// 0 when no polluting tenant is active, 1 when pollution saturates the
// shared caches. Guest kernels in separate VMs never see another tenant's
// pollution — their caches are private, one of the isolation benefits the
// paper attributes to smaller kernel surface areas.
func (k *Kernel) CachePressure() float64 {
	now := k.eng.Now()
	if now >= k.polWindowEnd {
		rate := k.polAccum / polWindow.Seconds() / float64(len(k.cores))
		k.polAccum = 0
		k.polWindowEnd = now + polWindow
		k.polRate = 0.5*k.polRate + 0.5*rate
	}
	// ~600 polluting syscalls per core-second saturates the caches.
	p := k.polRate / 600
	if p > 1 {
		p = 1
	}
	return p
}

// PageCacheHit draws whether a file-I/O access hits the page cache; hot-set
// hit rates degrade under cross-tenant cache pollution.
func (k *Kernel) PageCacheHit(coreID int) bool {
	p := k.par.PageCacheHit * (1 - 0.25*k.CachePressure())
	return k.cores[coreID].rng.Bool(p)
}

// DentryCacheHit draws whether a path lookup hits the dentry cache,
// degraded under cross-tenant cache pollution like PageCacheHit.
func (k *Kernel) DentryCacheHit(coreID int) bool {
	p := k.par.DentryCacheHit * (1 - 0.28*k.CachePressure())
	return k.cores[coreID].rng.Bool(p)
}

// Submit queues a task on the given core. Tasks on one core run FIFO, one
// at a time; latency reported to OnDone includes CPU queueing.
func (k *Kernel) Submit(coreID int, t *Task) {
	if coreID < 0 || coreID >= len(k.cores) {
		panic(fmt.Sprintf("kernel %s: submit to core %d of %d", k.cfg.Name, coreID, len(k.cores)))
	}
	c := k.cores[coreID]
	t.kern = k
	t.core = c
	t.start = k.eng.Now()
	t.opIdx = 0
	if t.cont == nil {
		t.cont = func() { t.kern.step(t.core, t) }
	}
	if t.AddrSpace == nil {
		t.AddrSpace = sim.NewRWLock(k.eng, "anon-mm")
	}
	if c.busy {
		c.queue = append(c.queue, t)
		return
	}
	c.busy = true
	k.busyCores++
	k.startTask(c, t)
}

func (k *Kernel) startTask(c *core, t *Task) {
	k.stats.TasksRun++
	for _, o := range k.obs {
		o.BeginTask(c.id, t.Tenant, t.Label, t.start, k.eng.Now()-t.start)
	}
	overhead := k.par.EntryOverhead
	if v := k.cfg.Virt; v != nil {
		overhead += v.PerTaskOverhead
	}
	if overhead > 0 {
		for _, o := range k.obs {
			o.Compute(c.id, overhead)
		}
		end := k.elapse(c, k.eng.Now(), overhead)
		k.eng.At(end, t.cont)
		return
	}
	k.step(c, t)
}

func (k *Kernel) finishTask(c *core, t *Task) {
	if len(t.lockStack) != 0 {
		panic(fmt.Sprintf("kernel %s: task finished holding %d locks", k.cfg.Name, len(t.lockStack)))
	}
	elapsed := k.eng.Now() - t.start
	for _, o := range k.obs {
		o.EndTask(c.id, elapsed)
	}
	done := t.OnDone
	// Start the next queued task before invoking the callback so that a
	// callback which submits more work observes a consistent queue.
	if len(c.queue) > 0 {
		next := c.queue[0]
		c.queue = c.queue[1:]
		k.startTask(c, next)
	} else {
		c.busy = false
		k.busyCores--
	}
	if done != nil {
		done(elapsed)
	}
}
