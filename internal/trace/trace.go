package trace

import (
	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// Options configures a Tracer.
type Options struct {
	// Threshold is the wall-time above which a completed task earns a
	// blame record. Default 1ms — the paper's "unbounded software
	// interference" territory.
	Threshold sim.Time
	// MaxRecords caps retained blame records; excess outliers are counted
	// but not stored. Default 8192.
	MaxRecords int
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = sim.Millisecond
	}
	if o.MaxRecords == 0 {
		o.MaxRecords = 8192
	}
	return o
}

// Tracer is a kernel.Observer that aggregates one kernel's lockstat and
// blame. Attach it with Kernel.Observe before any task is submitted.
type Tracer struct {
	opts Options

	locks     map[string]*LockStat
	lockOrder []string // insertion order, for deterministic iteration

	// cur[c] accumulates the blame of the task running on core c.
	cur []taskBlame

	tasks       uint64
	outliers    uint64
	records     []BlameRecord
	recordDrops uint64
}

// New returns a tracer.
func New(opts Options) *Tracer {
	return &Tracer{opts: opts.withDefaults(), locks: make(map[string]*LockStat)}
}

// Options returns the effective configuration.
func (tr *Tracer) Options() Options { return tr.opts }

// Tasks returns the number of completed tasks observed.
func (tr *Tracer) Tasks() uint64 { return tr.tasks }

// Outliers returns how many tasks exceeded the blame threshold (retained
// or not).
func (tr *Tracer) Outliers() uint64 { return tr.outliers }

// Records returns the retained blame records in completion order.
func (tr *Tracer) Records() []BlameRecord { return tr.records }

// RecordDrops returns how many outliers exceeded MaxRecords and were
// counted but not retained.
func (tr *Tracer) RecordDrops() uint64 { return tr.recordDrops }

// lockStat returns (creating if needed) the named lock's aggregate.
func (tr *Tracer) lockStat(name string) *LockStat {
	ls, ok := tr.locks[name]
	if !ok {
		ls = &LockStat{Name: name}
		tr.locks[name] = ls
		tr.lockOrder = append(tr.lockOrder, name)
	}
	return ls
}

// task returns the open accumulator of core's task, or nil when no task
// was begun there (a tracer attached mid-flight): lockstat still
// aggregates, but the task earns no blame.
func (tr *Tracer) task(core int) *taskBlame {
	if core < len(tr.cur) && tr.cur[core].open {
		return &tr.cur[core]
	}
	return nil
}

// --- kernel.Observer ---

// BeginTask opens core's blame accumulator, reusing the previous task's.
func (tr *Tracer) BeginTask(core, tenant int, label string, start, queueWait sim.Time) {
	for len(tr.cur) <= core {
		tr.cur = append(tr.cur, taskBlame{})
	}
	tb := &tr.cur[core]
	*tb = taskBlame{open: true, Label: label, Core: core, Tenant: tenant, Start: start,
		QueueWait: queueWait, lockWait: tb.lockWait[:0]}
}

// Compute charges on-CPU work to the task.
func (tr *Tracer) Compute(core int, d sim.Time) {
	if tb := tr.task(core); tb != nil {
		tb.Compute += d
	}
}

// LockAcquired records a kernel lock grant under the lock's family name.
// The blame decomposition separates the injected share of the wait
// (internal/fault) under the "injected:lock-hold" cause, while the
// lockstat aggregates — which describe the lock's observed reality,
// whatever the cause — keep the full wait.
func (tr *Tracer) LockAcquired(core int, id kernel.LockID, wait, injWait sim.Time, waiters int) {
	name := kernel.TraceLockName(id)
	ls := tr.lockStat(name)
	ls.grant(wait)
	if waiters > ls.MaxWaiters {
		ls.MaxWaiters = waiters
	}
	if tb := tr.task(core); tb != nil {
		tb.addLock(name, wait-injWait)
		tb.InjLockWait += injWait
	}
}

// LockReleased records a kernel lock release and its hold time (holder
// preemption included — a housekeeping burst landing on the holder shows
// up here as an extended hold).
func (tr *Tracer) LockReleased(_ int, id kernel.LockID, hold sim.Time) {
	ls := tr.lockStat(kernel.TraceLockName(id))
	ls.Holds++
	ls.TotalHold += hold
	if hold > ls.MaxHold {
		ls.MaxHold = hold
	}
	ls.Hold.Add(hold.Micros())
}

// MMapWait records an address-space rw-semaphore wait. It aggregates under
// the pseudo-lock "mmap_sem" (waits only; reader holds overlap and have no
// single owner).
func (tr *Tracer) MMapWait(core int, wait sim.Time) {
	tr.lockStat(MMapSemName).grant(wait)
	if tb := tr.task(core); tb != nil {
		tb.addLock(MMapSemName, wait)
	}
}

// MMapSemName is the pseudo-lock name mmap_sem waits aggregate under.
const MMapSemName = "mmap_sem"

// Steal records CPU stolen from the task's on-CPU work by the given stream.
func (tr *Tracer) Steal(core int, kind kernel.StealKind, d sim.Time) {
	if tb := tr.task(core); tb != nil {
		tb.Steal[kind] += d
	}
}

// IPI records a broadcast the task sent: the bus wait (dispatch
// serialization) plus the dispatch and ack time it paid.
func (tr *Tracer) IPI(core, _ int, busWait, cost sim.Time) {
	if tb := tr.task(core); tb != nil {
		tb.IPI += busWait + cost
	}
}

// IPIBusReleased is part of kernel.Observer; the bus hold is already in
// the sender's IPI time.
func (tr *Tracer) IPIBusReleased(int, sim.Time) {}

// BlockIO records one block-device round trip: queueing (guest plus, under
// virtualization, host) and the device time plus any virtio relay.
func (tr *Tracer) BlockIO(core int, qWait, hostWait, service sim.Time) {
	if tb := tr.task(core); tb != nil {
		tb.BlockIO += qWait + hostWait + service
	}
}

// Sleep records a voluntary off-CPU wait (tick-quantized wakeup included).
func (tr *Tracer) Sleep(core int, d sim.Time) {
	if tb := tr.task(core); tb != nil {
		tb.Sleep += d
	}
}

// EndTask closes the task's accounting. Tasks whose wall time meets the
// threshold become blame records.
func (tr *Tracer) EndTask(core int, wall sim.Time) {
	tr.tasks++
	tb := tr.task(core)
	if tb == nil {
		return
	}
	tb.open = false
	if wall < tr.opts.Threshold {
		return
	}
	tr.outliers++
	if len(tr.records) >= tr.opts.MaxRecords {
		tr.recordDrops++
		return
	}
	tr.records = append(tr.records, tb.record(wall))
}
