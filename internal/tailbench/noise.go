package tailbench

import (
	"ksa/internal/corpus"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// StartNoise drives the varbench system-call corpus as a co-running tenant
// (§6.2: three of the four partitions run a 48-core synthetic system-call
// workload while the fourth serves the tailbench application). The noise
// cores iterate the corpus with barrier synchronization among themselves,
// exactly like a standalone varbench deployment, until deadline. gap is
// the per-iteration pause after the barrier releases — the
// result-collection and MPI overhead a real varbench deployment pays
// between programs; it bounds the noise tenant's duty cycle. skew, when
// non-nil, draws each party's barrier release skew (exponential, mean
// 6µs); nil releases every party at once.
func StartNoise(env *platform.Environment, cores []platform.CoreRef, c *corpus.Corpus, deadline sim.Time, gap sim.Time, skew *rng.Source) {
	if len(cores) == 0 || len(c.Programs) == 0 {
		return
	}
	eng := env.Eng
	barrier := sim.NewBarrier(eng, len(cores), 2*sim.Microsecond)
	if skew != nil {
		barrier.Jitter = func() sim.Time { return sim.Time(skew.Exp(float64(6 * sim.Microsecond))) }
	}

	// Compile each program once and keep one runner per noise core; each
	// round resets the process context, reproducing the fresh-runner
	// behavior without the per-round construction cost.
	compiled := make([]*corpus.Compiled, len(c.Programs))
	for i, p := range c.Programs {
		compiled[i] = corpus.Compile(p, nil)
	}
	for _, ref := range cores {
		r := corpus.NewRunner(eng, ref.Kernel, ref.Core, nil)
		r.PolluteCaches = true
		// A round is three steps, built once per core: arrive at the
		// barrier, pause gap after its release, run the next program (whose
		// end arrives again).
		prog := 0
		var arrive, pause, run func()
		arrive = func() {
			if eng.Now() < deadline {
				barrier.Arrive(pause)
			}
		}
		pause = func() {
			if eng.Now() < deadline {
				eng.After(gap, run)
			}
		}
		run = func() {
			if eng.Now() >= deadline {
				return
			}
			p := compiled[prog]
			prog = (prog + 1) % len(compiled)
			r.ResetProc()
			r.RunCompiled(p, nil, arrive)
		}
		arrive()
	}
}
