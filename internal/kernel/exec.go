package kernel

import (
	"fmt"
	"math"

	"ksa/internal/sim"
)

// step executes the next micro-op of t on core c. The executor is written
// in continuation-passing style over the event engine: ops that consume
// virtual time schedule their continuation; zero-time transitions run
// synchronously, with recursion bounded by the (short) op list length.
func (k *Kernel) step(c *core, t *Task) {
	if t.opIdx >= len(t.Ops) {
		k.finishTask(c, t)
		return
	}
	op := t.Ops[t.opIdx]
	t.opIdx++

	switch op.Kind {
	case OpCompute:
		d := k.computeCost(op)
		for _, o := range k.obs {
			o.Compute(c.id, d)
		}
		end := k.elapse(c, k.eng.Now(), d)
		k.eng.At(end, t.cont)

	case OpLock:
		// On a specialized kernel, acquiring a slab the profile did not
		// retain is an escape from the profiled surface: it still works
		// (soundness — a mapped syscall may take a rare branch), but the
		// escape is counted so -strict-profile harnesses can detect it.
		if red := k.cfg.Reduction; red != nil && !red.LockRetained(op.Lock) {
			k.stats.OutOfProfileLocks++
		}
		t.lockStack = append(t.lockStack, op.Lock)
		l := &k.locks[op.Lock]
		reqAt := k.eng.Now()
		waiters := l.QueueLen()
		// Snapshot the injected-hold accumulator at request time; the delta
		// at grant, clamped to the wait, is the injected share of it.
		var injSnap sim.Time
		if k.inj != nil {
			injSnap = k.inj.lockHoldAccum[op.Lock]
		}
		l.Acquire(func() {
			wait := k.eng.Now() - reqAt
			k.stats.LockWait += wait
			var injWait sim.Time
			if k.inj != nil {
				injWait = k.inj.lockHoldAccum[op.Lock] - injSnap
				if injWait > wait {
					injWait = wait
				}
				k.stats.InjLockWait += injWait
			}
			if len(k.obs) > 0 {
				for _, o := range k.obs {
					o.LockAcquired(c.id, op.Lock, wait, injWait, waiters)
				}
				t.lockAcqAt = append(t.lockAcqAt, k.eng.Now())
			}
			k.step(c, t)
		})

	case OpUnlock:
		n := len(t.lockStack)
		if n == 0 || t.lockStack[n-1] != op.Lock {
			panic(fmt.Sprintf("kernel %s: unbalanced unlock of %d", k.cfg.Name, op.Lock))
		}
		t.lockStack = t.lockStack[:n-1]
		k.stats.LockHolds++
		// Grant times are kept only while observed, so a non-empty stack
		// means there is someone to tell.
		if n := len(t.lockAcqAt); n > 0 {
			hold := k.eng.Now() - t.lockAcqAt[n-1]
			t.lockAcqAt = t.lockAcqAt[:n-1]
			for _, o := range k.obs {
				o.LockReleased(c.id, op.Lock, hold)
			}
		}
		k.locks[op.Lock].Release()
		k.step(c, t)

	case OpRLock:
		reqAt := k.eng.Now()
		t.AddrSpace.RLock(func() {
			k.mmapGranted(c, reqAt)
			k.step(c, t)
		})

	case OpRUnlock:
		t.AddrSpace.RUnlock()
		k.step(c, t)

	case OpWLock:
		reqAt := k.eng.Now()
		t.AddrSpace.Lock(func() {
			k.mmapGranted(c, reqAt)
			k.step(c, t)
		})

	case OpWUnlock:
		t.AddrSpace.Unlock()
		k.step(c, t)

	case OpIPI:
		k.runIPI(c, t, op)

	case OpBlockIO:
		k.runBlockIO(c, t, op)

	case OpSleep:
		k.stats.Sleeps++
		// Wakeups are quantized to the next timer tick after the requested
		// deadline, the way a HZ-driven kernel wakes sleepers.
		deadline := k.eng.Now() + op.Dur
		period := k.par.TickPeriod
		wake := ((deadline + period - 1) / period) * period
		if wake <= k.eng.Now() {
			wake = k.eng.Now() + 1
		}
		for _, o := range k.obs {
			o.Sleep(c.id, wake-k.eng.Now())
		}
		k.eng.At(wake, t.cont)

	default:
		panic(fmt.Sprintf("kernel %s: unknown op kind %d", k.cfg.Name, op.Kind))
	}
}

// mmapGranted books an address-space semaphore grant: the wait counts
// toward Stats.LockWait and is reported to the observers.
func (k *Kernel) mmapGranted(c *core, reqAt sim.Time) {
	wait := k.eng.Now() - reqAt
	k.stats.LockWait += wait
	for _, o := range k.obs {
		o.MMapWait(c.id, wait)
	}
}

// computeCost applies hold scaling and the virtualization tax to an op's
// on-CPU duration.
func (k *Kernel) computeCost(op Op) sim.Time {
	d := op.Dur
	if !op.User {
		d = sim.Time(float64(d) * k.par.HoldScale)
	}
	if v := k.cfg.Virt; v != nil {
		if !op.User {
			d = sim.Time(float64(d) * v.ComputeDilation)
		}
		if op.Exits > 0 {
			d += sim.Time(op.Exits) * v.ExitCost
			k.stats.VMExits += uint64(op.Exits)
		}
	}
	if !op.User {
		k.kwAccum += d
	}
	return d
}

// kwWindow is the kernel-work-rate sampling window.
const kwWindow = 5 * sim.Millisecond

// loadFactor returns the housekeeping intensity in (0, 1]. Two signals
// drive it, and the stronger wins: the recent kernel-work rate (a
// syscall-intensive tenant generates dirty state even at low CPU duty) and
// the busy-core fraction (a fully busy kernel is doing full housekeeping
// regardless of the user/kernel split). An idle kernel produces only the
// 0.08 floor.
func (k *Kernel) loadFactor() float64 {
	now := k.eng.Now()
	if now >= k.kwWindowEnd {
		rate := float64(k.kwAccum) / float64(kwWindow) / float64(len(k.cores))
		k.kwAccum = 0
		k.kwWindowEnd = now + kwWindow
		k.kwRate = 0.5*k.kwRate + 0.5*rate
	}
	f := k.kwRate / 0.30
	if f > 1 {
		f = 1
	}
	kw := f * f * f
	bf := float64(k.busyCores) / float64(len(k.cores))
	busy := bf * bf
	resp := kw
	if busy > resp {
		resp = busy
	}
	return 0.08 + 0.92*resp
}

// runIPI models a TLB-shootdown-style broadcast: concurrent broadcasters
// serialize on the kernel's IPI bus; the sender pays base plus per-target
// cost; each target core is charged handler time that will steal from its
// next on-CPU work. A single-core kernel flushes locally and skips the bus
// entirely — the "uniprocessor benefit" the paper observes in the 64-VM
// configuration.
func (k *Kernel) runIPI(c *core, t *Task, op Op) {
	targets := len(k.cores) - 1
	k.stats.IPIs++
	if targets == 0 {
		// Local flush only.
		cost := k.par.IPIBase / 2
		for _, o := range k.obs {
			o.IPI(c.id, 0, 0, cost)
		}
		end := k.elapse(c, k.eng.Now(), cost)
		k.eng.At(end, t.cont)
		return
	}
	reqAt := k.eng.Now()
	k.ipiBus.Acquire(func() {
		grantAt := k.eng.Now()
		cost := k.par.IPIBase + sim.Time(targets)*k.par.IPIPerTarget
		if v := k.cfg.Virt; v != nil && op.Exits > 0 {
			// Each remote vCPU kick traps to the hypervisor.
			exits := op.Exits * targets
			cost += sim.Time(exits) * v.ExitCost
			k.stats.VMExits += uint64(exits)
		}
		k.stats.IPITargets += uint64(targets)
		for _, o := range k.obs {
			o.IPI(c.id, targets, grantAt-reqAt, cost)
		}
		// Only the dispatch path holds the shared bus; waiting for the
		// remaining acks overlaps with other senders.
		busHold := k.par.IPIBase + sim.Time(float64(cost-k.par.IPIBase)*k.par.IPIBusOverlap)
		busEnd := k.elapse(c, k.eng.Now(), busHold)
		k.eng.At(busEnd, func() {
			for _, other := range k.cores {
				if other != c {
					other.pendingSteal += k.par.IPIHandlerCost
				}
			}
			for _, o := range k.obs {
				o.IPIBusReleased(c.id, k.eng.Now()-grantAt)
			}
			k.ipiBus.Release()
			rest := cost - busHold
			end := k.elapse(c, k.eng.Now(), rest)
			k.eng.At(end, t.cont)
		})
	})
}

// runBlockIO models one block-device round trip. The device services up to
// BlockQueueDepth requests concurrently; under virtualization the request
// then relays through the shared host device with virtio overhead and exits
// — so VM disks remain coupled through the host even though the kernels are
// isolated.
func (k *Kernel) runBlockIO(c *core, t *Task, op Op) {
	k.stats.BlockIOs++
	service := op.Dur
	if service == 0 {
		service = k.drawBlockService(c)
	}
	q := k.blockDev
	reqAt := k.eng.Now()
	q.Acquire(func() {
		qWait := k.eng.Now() - reqAt
		v := k.cfg.Virt
		if v != nil && v.HostBlockQueue != nil {
			relay := v.VirtioRelay + sim.Time(op.Exits)*v.ExitCost
			k.stats.VMExits += uint64(op.Exits)
			hostReq := k.eng.Now()
			v.HostBlockQueue.Acquire(func() {
				hostWait := k.eng.Now() - hostReq
				k.eng.After(service+relay, func() {
					for _, o := range k.obs {
						o.BlockIO(c.id, qWait, hostWait, service+relay)
					}
					v.HostBlockQueue.Release()
					q.Release()
					k.step(c, t)
				})
			})
			return
		}
		k.eng.After(service, func() {
			for _, o := range k.obs {
				o.BlockIO(c.id, qWait, 0, service)
			}
			q.Release()
			k.step(c, t)
		})
	})
}

func (k *Kernel) drawBlockService(c *core) sim.Time {
	mean := float64(k.par.BlockServiceMean)
	sigma := k.par.BlockServiceSigma
	// Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
	mu := math.Log(mean) - sigma*sigma/2
	return sim.Time(c.rng.LogNormal(mu, sigma))
}

// elapse converts on-CPU work of length d starting at start into a finish
// time, charging (1) interrupt-handler debt owed by this core, (2) timer
// ticks crossed, and (3) housekeeping bursts that land while the work runs.
// Bursts that fired while the core was idle are skipped — housekeeping on
// an idle core delays nobody. A burst landing on a lock holder extends the
// hold and therefore everyone queued behind it: this is the paper's
// "potentially unbounded software interference" mechanism.
func (k *Kernel) elapse(c *core, start sim.Time, d sim.Time) sim.Time {
	if d < 0 {
		d = 0
	}
	end := start + d
	// Interrupt debt (TLB flush handlers etc.) runs first.
	if c.pendingSteal > 0 {
		end += c.pendingSteal
		k.stats.NoiseStolen += c.pendingSteal
		for _, o := range k.obs {
			o.Steal(c.id, StealIPIHandler, c.pendingSteal)
		}
		c.pendingSteal = 0
	}
	// Injected interrupt debt (fault-injection IPI storms) likewise, kept
	// separate so the steal is attributed as injected.
	if c.pendingInj > 0 {
		end += c.pendingInj
		k.stats.InjBursts++
		k.stats.InjStolen += c.pendingInj
		for _, o := range k.obs {
			o.Steal(c.id, StealInjIPI, c.pendingInj)
		}
		c.pendingInj = 0
	}
	quiet := k.par.Quiet
	if quiet && (k.inj == nil || !k.inj.jitter) {
		return end
	}
	// Housekeeping generated by this kernel shrinks when the kernel does
	// little kernel-mode work (there is little dirty state to write back
	// or reclaim). A Quiet kernel produces no housekeeping of its own but
	// still absorbs injected jitter streams — the controlled-dosing case.
	var loadFactor float64
	if !quiet {
		loadFactor = k.loadFactor()
	}
	for _, ns := range c.noise {
		if quiet && !ns.injected {
			continue
		}
		// Skip bursts that completed while idle.
		for ns.next+ns.len <= start {
			ns.advance(ns.next + ns.len)
		}
		// Absorb bursts overlapping the work; each extends the finish time,
		// possibly exposing the work to further bursts.
		for ns.next < end {
			steal := ns.len
			if ns.next < start {
				// Burst began while idle and spills into the work window;
				// only the overlap steals.
				steal = ns.next + ns.len - start
			}
			if ns.loadScaled {
				steal = sim.Time(float64(steal) * loadFactor)
			}
			steal += ns.perBurstExtra
			end += steal
			if ns.injected {
				k.stats.InjBursts++
				k.stats.InjStolen += steal
			} else {
				k.stats.NoiseBursts++
				k.stats.NoiseStolen += steal
			}
			for _, o := range k.obs {
				o.Steal(c.id, ns.kind, steal)
			}
			ns.advance(ns.next + ns.len)
		}
	}
	// A Quiet kernel ticks not at all: only the injected streams above
	// perturb it.
	if quiet {
		return end
	}
	// Timer ticks: every boundary crossed costs TickCost. One pass —
	// the second-order effect of tick-steal crossing further boundaries is
	// negligible at the modeled tick cost.
	period := k.par.TickPeriod
	ticks := end/period - start/period
	if ticks > 0 {
		steal := sim.Time(ticks) * k.par.TickCost
		end += steal
		k.stats.TickStolen += steal
		for _, o := range k.obs {
			o.Steal(c.id, StealTick, steal)
		}
	}
	return end
}
