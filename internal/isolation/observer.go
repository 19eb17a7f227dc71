package isolation

import (
	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// KernelObserver returns the kernel.Observer that books k's contention into
// r; attach it with k.Observe before submitting work. Every lock family,
// k's IPI bus, its block-device queue (shared across kernels when the
// environment shares one, which is what makes device coupling
// cross-kernel attributable) and, for a guest, the host's block queue
// resolve to their scopes here, once, so the hot path indexes instead of
// hashing.
func (r *Recorder) KernelObserver(k *kernel.Kernel) kernel.Observer {
	o := &kernelObserver{
		rec:   r,
		locks: make([]*Scope, kernel.NumLocks()),
		cur:   make([]taskWait, k.NumCores()),
	}
	// Shards resolve to one per-kernel family scope, matching the
	// tracer's shard collapsing.
	for id := range o.locks {
		fam := kernel.TraceLockName(kernel.LockID(id))
		o.locks[id] = r.Scope(k.Name()+"/"+fam, fam)
	}
	o.ipi = r.Scope(k.Name()+"/ipi-bus", "ipi-bus")
	o.blk = r.Scope(k.BlockDevice().Name(), "block-device")
	if h := k.HostBlockDevice(); h != nil {
		o.host = r.Scope(h.Name(), "host-blk")
	}
	return o
}

// taskWait is the running task's tenant and its resource wait so far,
// split into cross-tenant and injected shares.
type taskWait struct {
	tenant           int
	wait, cross, inj sim.Time
}

type kernelObserver struct {
	rec            *Recorder
	locks          []*Scope // by kernel.LockID
	ipi, blk, host *Scope   // host is nil for a kernel that is not a guest
	cur            []taskWait
}

func (o *kernelObserver) BeginTask(core, tenant int, _ string, _, _ sim.Time) {
	o.cur[core] = taskWait{tenant: tenant}
}

// grant books one acquisition of s by core's task and the wait before it,
// injWait of which was spent behind injected holders.
func (o *kernelObserver) grant(core int, s *Scope, wait, injWait sim.Time) {
	t := &o.cur[core]
	s.Touch(t.tenant)
	if wait > 0 {
		// The emergent remainder of the wait is cross-tenant by
		// construction: with one task per tenant, a tenant whose only task
		// is queued holds nothing itself (DESIGN §15).
		s.Wait(t.tenant, wait, injWait)
		t.wait += wait
		t.cross += wait - injWait
		t.inj += injWait
	}
}

func (o *kernelObserver) LockAcquired(core int, id kernel.LockID, wait, injWait sim.Time, _ int) {
	o.grant(core, o.locks[id], wait, injWait)
}

func (o *kernelObserver) LockReleased(core int, id kernel.LockID, hold sim.Time) {
	o.locks[id].Hold(o.cur[core].tenant, hold)
}

// IPI books the bus grant; a local flush takes no bus.
func (o *kernelObserver) IPI(core, targets int, busWait, _ sim.Time) {
	if targets > 0 {
		o.grant(core, o.ipi, busWait, 0)
	}
}

func (o *kernelObserver) IPIBusReleased(core int, hold sim.Time) {
	o.ipi.Hold(o.cur[core].tenant, hold)
}

// BlockIO books both queue grants at completion: the kernel's queue is held
// from its grant through the host round trip, the host's for the service.
func (o *kernelObserver) BlockIO(core int, qWait, hostWait, service sim.Time) {
	o.grant(core, o.blk, qWait, 0)
	tenant := o.cur[core].tenant
	if o.host != nil {
		o.grant(core, o.host, hostWait, 0)
		o.host.Hold(tenant, service)
	}
	o.blk.Hold(tenant, hostWait+service)
}

func (o *kernelObserver) EndTask(core int, wall sim.Time) {
	t := o.cur[core]
	o.rec.EndTask(t.tenant, wall, t.wait, t.cross, t.inj)
}

// Compute, MMapWait, Steal and Sleep involve no structure another tenant
// holds.
func (o *kernelObserver) Compute(int, sim.Time)                 {}
func (o *kernelObserver) MMapWait(int, sim.Time)                {}
func (o *kernelObserver) Steal(int, kernel.StealKind, sim.Time) {}
func (o *kernelObserver) Sleep(int, sim.Time)                   {}
