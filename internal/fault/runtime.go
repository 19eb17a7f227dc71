package fault

import (
	"strings"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// Runtime is an attached plan's live injector set. Injectors are
// self-rescheduling event chains on the shared engine; because sim.Engine
// drains every event, a Runtime must be bounded — either Stop it when the
// measured workload completes, or give it a deadline up front — or Run()
// never returns.
type Runtime struct {
	eng      *sim.Engine
	stopped  bool
	deadline sim.Time
}

// active reports whether injectors should keep rescheduling.
func (rt *Runtime) active() bool {
	return !rt.stopped && rt.eng.Now() < rt.deadline
}

// Stop halts all injectors: in-flight holds still release (a stopped
// injector never strands a lock), but nothing new fires.
func (rt *Runtime) Stop() { rt.stopped = true }

// lockInjector drives LockHold and DaemonStorm against one kernel. All
// closures are built once at attach; a firing draws samples and schedules
// engine events but allocates nothing.
type lockInjector struct {
	rt    *Runtime
	k     *kernel.Kernel
	rng   *rng.Source
	locks []kernel.LockID
	sweep bool // DaemonStorm: hold every lock in order per firing
	gap   sim.Time
	minD  float64
	maxD  float64
	alpha float64

	cur     int // index into locks of the hold in flight
	hold    sim.Time
	fire    func()
	granted func()
	release func()
}

func newLockInjector(rt *Runtime, k *kernel.Kernel, src *rng.Source, inj Injector) *lockInjector {
	li := &lockInjector{
		rt: rt, k: k, rng: src,
		locks: inj.Class.Locks(),
		sweep: inj.Kind == DaemonStorm,
		gap:   inj.Gap,
		minD:  float64(inj.MinDur),
		maxD:  float64(inj.MaxDur),
		alpha: inj.Alpha,
	}
	li.fire = li.doFire
	li.granted = li.doGranted
	li.release = li.doRelease
	return li
}

func (li *lockInjector) doFire() {
	if !li.rt.active() {
		return
	}
	if li.sweep {
		li.cur = 0
	} else {
		li.cur = li.rng.Intn(len(li.locks))
	}
	li.acquire()
}

func (li *lockInjector) acquire() {
	li.hold = sim.Time(li.rng.BoundedPareto(li.minD, li.maxD, li.alpha))
	li.k.Lock(li.locks[li.cur]).Acquire(li.granted)
}

func (li *lockInjector) doGranted() {
	li.rt.eng.At(li.rt.eng.Now()+li.hold, li.release)
}

func (li *lockInjector) doRelease() {
	id := li.locks[li.cur]
	li.k.RecordInjectedHold(id, li.hold)
	li.k.Lock(id).Release()
	if li.sweep && li.cur+1 < len(li.locks) && li.rt.active() {
		li.cur++
		li.acquire()
		return
	}
	li.scheduleNext()
}

func (li *lockInjector) scheduleNext() {
	if !li.rt.active() {
		return
	}
	gap := sim.Time(li.rng.Exp(float64(li.gap)))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	li.rt.eng.At(li.rt.eng.Now()+gap, li.fire)
}

// ipiStorm periodically charges every core of one kernel handler debt.
type ipiStorm struct {
	rt    *Runtime
	k     *kernel.Kernel
	rng   *rng.Source
	gap   sim.Time
	minD  float64
	maxD  float64
	alpha float64
	fire  func()
}

func newIPIStorm(rt *Runtime, k *kernel.Kernel, src *rng.Source, inj Injector) *ipiStorm {
	st := &ipiStorm{
		rt: rt, k: k, rng: src,
		gap:   inj.Gap,
		minD:  float64(inj.MinDur),
		maxD:  float64(inj.MaxDur),
		alpha: inj.Alpha,
	}
	st.fire = st.doFire
	return st
}

func (st *ipiStorm) doFire() {
	if !st.rt.active() {
		return
	}
	per := sim.Time(st.rng.BoundedPareto(st.minD, st.maxD, st.alpha))
	st.k.InjectIPIStorm(per)
	gap := sim.Time(st.rng.Exp(float64(st.gap)))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	st.rt.eng.At(st.rt.eng.Now()+gap, st.fire)
}

// Attach arms plan against the kernels whose names contain plan.Scope and
// returns the live Runtime. src must derive from the experiment seed (per
// env and trial) so results are reproducible; Attach splits it per
// (kernel, injector) in deterministic order. Injectors start firing after
// their first sampled gap once the engine runs. The caller must bound the
// runtime via Stop or deadline (see Runtime).
func Attach(eng *sim.Engine, src *rng.Source, plan Plan, ks ...*kernel.Kernel) *Runtime {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	rt := &Runtime{eng: eng, deadline: sim.Forever}
	for ki, k := range ks {
		if plan.Scope != "" && !strings.Contains(k.Name(), plan.Scope) {
			continue
		}
		k.EnableInjection()
		ksrc := src.Split(uint64(ki) + 0x0fa17)
		for ii, inj := range plan.Injectors {
			isrc := ksrc.Split(uint64(ii) + 1)
			switch inj.Kind {
			case LockHold, DaemonStorm:
				li := newLockInjector(rt, k, isrc, inj)
				startGap := sim.Time(isrc.Exp(float64(inj.Gap)))
				if startGap < sim.Microsecond {
					startGap = sim.Microsecond
				}
				eng.At(eng.Now()+startGap, li.fire)
			case Jitter:
				k.AddJitterStream(isrc, inj.Gap, inj.MinDur, inj.MaxDur, inj.Alpha)
			case IPIStorm:
				st := newIPIStorm(rt, k, isrc, inj)
				startGap := sim.Time(isrc.Exp(float64(inj.Gap)))
				if startGap < sim.Microsecond {
					startGap = sim.Microsecond
				}
				eng.At(eng.Now()+startGap, st.fire)
			}
		}
	}
	return rt
}

// AttachUntil is Attach with an up-front deadline: injectors stop firing at
// t, letting the engine drain without an explicit Stop call.
func AttachUntil(eng *sim.Engine, src *rng.Source, plan Plan, deadline sim.Time, ks ...*kernel.Kernel) *Runtime {
	rt := Attach(eng, src, plan, ks...)
	rt.deadline = deadline
	return rt
}
