package sim

// Barrier is a reusable N-party synchronization point, modeling the
// MPI_Barrier the paper's harness uses to start every program on every core
// at the same instant. When the last party arrives, all parties resume at
// the same virtual time: arrival time of the last party plus a latency that
// grows logarithmically with the party count (a dissemination barrier).
type Barrier struct {
	eng     *Engine
	parties int
	// latPerHop is the per-round latency of the modeled dissemination
	// barrier; total release latency is latPerHop * ceil(log2(parties)).
	latPerHop Time

	// Jitter, if non-nil, returns an extra per-party release delay (drawn
	// once per release). Real barriers do not release all ranks at the same
	// instant: propagation order, interrupts, and cache misses skew wakeups
	// by microseconds, which partially de-synchronizes the convoy that hits
	// the kernel. The paper's harness has this skew implicitly; the
	// simulator must model it explicitly or every lock sees worst-case
	// simultaneous arrival on every iteration.
	Jitter func() Time

	waiting []func()
	epochs  uint64
}

// NewBarrier returns a barrier for the given number of parties. latPerHop is
// the per-round network/software latency (zero is allowed and gives an
// idealized barrier).
func NewBarrier(eng *Engine, parties int, latPerHop Time) *Barrier {
	if parties <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{eng: eng, parties: parties, latPerHop: latPerHop}
}

// Epochs returns how many times the barrier has released.
func (b *Barrier) Epochs() uint64 { return b.epochs }

// ReleaseLatency returns the modeled latency between the last arrival and
// the simultaneous release of all parties.
func (b *Barrier) ReleaseLatency() Time {
	return ReleaseLatencyFor(b.parties, b.latPerHop)
}

// ReleaseLatencyFor is the dissemination-barrier release latency for a
// party count and per-hop latency: latPerHop * ceil(log2(parties)).
// Exported so orchestrators that compute barrier releases analytically
// (e.g. the cluster harness's per-node engines) model the identical cost.
func ReleaseLatencyFor(parties int, latPerHop Time) Time {
	hops := 0
	for n := 1; n < parties; n <<= 1 {
		hops++
	}
	return Time(hops) * latPerHop
}

// Arrive registers a party; resume runs when all parties have arrived. All
// resume callbacks are scheduled at the identical virtual time.
func (b *Barrier) Arrive(resume func()) {
	b.waiting = append(b.waiting, resume)
	if len(b.waiting) < b.parties {
		return
	}
	b.epochs++
	release := b.eng.Now() + b.ReleaseLatency()
	for _, fn := range b.waiting {
		at := release
		if b.Jitter != nil {
			if j := b.Jitter(); j > 0 {
				at += j
			}
		}
		b.eng.At(at, fn)
	}
	// At only schedules, so no party arrives during the loop; the next
	// epoch reuses the list.
	clear(b.waiting)
	b.waiting = b.waiting[:0]
}
