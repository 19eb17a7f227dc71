package kernel

import "ksa/internal/sim"

// NoTenant marks work that carries no tenant identity (kernel-internal or
// injected activity).
const NoTenant = -1

// StealKind names a CPU-steal stream for blame attribution.
type StealKind uint8

// Steal streams.
const (
	// StealHousekeeping is the guest kernel's own writeback/reclaim/RCU
	// bursts.
	StealHousekeeping StealKind = iota
	// StealHostResidency is the host kernel's activity on the pinned pCPU
	// (virtualized kernels only).
	StealHostResidency
	// StealTick is timer-tick accounting work.
	StealTick
	// StealIPIHandler is interrupt-handler debt from other cores' IPI/TLB
	// broadcasts.
	StealIPIHandler
	// StealInjJitter is timer-interrupt jitter dosed onto compute slices by
	// the fault-injection subsystem (internal/fault).
	StealInjJitter
	// StealInjIPI is interrupt-handler debt from injected IPI/TLB-shootdown
	// storms.
	StealInjIPI

	// NumStealKinds counts the streams.
	NumStealKinds
)

var stealNames = [NumStealKinds]string{
	"housekeeping", "host-residency", "tick", "ipi-handler",
	"injected-jitter", "injected-ipi",
}

// String names the stream.
func (s StealKind) String() string {
	if s < NumStealKinds {
		return stealNames[s]
	}
	return "steal?"
}

// Observer receives the executor's account of every task it runs: the
// waits, holds and CPU steal behind each task's latency, reported once to
// every observer attached with Kernel.Observe (internal/trace and
// internal/isolation each implement it).
//
// A core runs one task at a time and every call happens at the engine's
// current time, so each call after BeginTask(core, ...) and up to
// EndTask(core, ...) belongs to the task running on that core: an observer
// keeps its per-task state by core. Observation never changes a result —
// an observer must not draw randomness, schedule events or call back into
// the kernel.
type Observer interface {
	// BeginTask opens the task about to run on core: tenant is its
	// Task.Tenant, label its Task.Label, start its submit time and
	// queueWait the CPU queueing it paid before running.
	BeginTask(core, tenant int, label string, start, queueWait sim.Time)
	// Compute charges on-CPU work (entry overhead included).
	Compute(core int, d sim.Time)
	// LockAcquired books a kernel lock grant: the wait, the share of it
	// spent behind injected holders (internal/fault), and the queue length
	// seen at request time.
	LockAcquired(core int, id LockID, wait, injWait sim.Time, waiters int)
	// LockReleased books a release and the hold since the grant (holder
	// preemption included).
	LockReleased(core int, id LockID, hold sim.Time)
	// MMapWait books an address-space semaphore grant's wait.
	MMapWait(core int, wait sim.Time)
	// Steal charges CPU stolen from the task's on-CPU work.
	Steal(core int, kind StealKind, d sim.Time)
	// IPI books a broadcast to targets other cores (0 for a single-core
	// kernel's local flush, which takes no bus): the wait for the kernel's
	// IPI bus and the dispatch and ack time the sender pays.
	IPI(core, targets int, busWait, cost sim.Time)
	// IPIBusReleased books the end of a broadcast's hold on the IPI bus.
	IPIBusReleased(core int, hold sim.Time)
	// BlockIO books a completed block-device round trip: the wait for the
	// kernel's block queue, the wait for the host's queue (guests only) and
	// the device time plus any virtio relay.
	BlockIO(core int, qWait, hostWait, service sim.Time)
	// Sleep books a voluntary off-CPU wait (tick-quantized wakeup
	// included).
	Sleep(core int, d sim.Time)
	// EndTask closes the task with its total latency (queue wait included).
	EndTask(core int, wall sim.Time)
}

// Observe attaches o. Attach before submitting work: a task already in
// flight is reported from its next event on, without its BeginTask. With
// nothing attached each hook site costs one length check.
func (k *Kernel) Observe(o Observer) { k.obs = append(k.obs, o) }
