package fuzz

import (
	"ksa/internal/corpus"
	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// Options configures a corpus generation run.
type Options struct {
	// Seed makes generation reproducible.
	Seed uint64
	// TargetPrograms stops generation once the corpus holds this many
	// programs (default 100).
	TargetPrograms int
	// MaxIters bounds the total number of candidates evaluated
	// (default 200 * TargetPrograms).
	MaxIters int
	// MaxCallsPerProgram bounds program length (default 12).
	MaxCallsPerProgram int
	// Minimize enables call-removal minimization of kept programs
	// (on by default via NewOptions).
	Minimize bool
}

// NewOptions returns the default generation options for a seed.
func NewOptions(seed uint64) Options {
	return Options{
		Seed:               seed,
		TargetPrograms:     100,
		MaxCallsPerProgram: 12,
		Minimize:           true,
	}
}

func (o Options) withDefaults() Options {
	if o.TargetPrograms == 0 {
		o.TargetPrograms = 100
	}
	if o.MaxCallsPerProgram == 0 {
		o.MaxCallsPerProgram = 12
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200 * o.TargetPrograms
	}
	return o
}

// Stats summarizes a generation run.
type Stats struct {
	Iterations  int
	Kept        int
	Minimized   int // calls removed by minimization
	TotalBlocks int
	TotalCalls  int
}

// Generate runs the coverage-guided loop: synthesize or mutate a candidate,
// measure its kernel coverage on a reference kernel, keep it (minimized) if
// it reaches new blocks. This is the Syzkaller algorithm with the simulated
// kernel's handler branches standing in for KCOV.
func Generate(opts Options) (*corpus.Corpus, Stats) {
	opts = opts.withDefaults()
	tab := syscalls.Default()
	src := rng.New(opts.Seed)
	gen := NewGenerator(tab, src.Split(1), opts.MaxCallsPerProgram)
	evalSeed := src.Uint64()

	global := NewCoverage()
	out := &corpus.Corpus{}
	var stats Stats

	for stats.Iterations < opts.MaxIters && len(out.Programs) < opts.TargetPrograms {
		stats.Iterations++
		var cand *corpus.Program
		if len(out.Programs) > 0 && src.Bool(0.6) {
			seed := out.Programs[src.Intn(len(out.Programs))]
			var donor *corpus.Program
			if src.Bool(0.3) {
				donor = out.Programs[src.Intn(len(out.Programs))]
			}
			cand = gen.Mutate(seed, donor)
		} else {
			cand = gen.RandomProgram()
		}
		if len(cand.Calls) == 0 {
			continue
		}
		cov := coverageOf(cand, tab, evalSeed)
		newBlocks := global.NewBlocks(cov)
		if len(newBlocks) == 0 {
			continue
		}
		if opts.Minimize {
			cand, cov = minimize(cand, newBlocks, tab, evalSeed, &stats)
		}
		global.Merge(cov)
		out.Add(cand)
		stats.Kept++
	}
	stats.TotalBlocks = global.Len()
	stats.TotalCalls = out.NumCalls()
	return out, stats
}

// coverageOf compiles the program against a fresh reference kernel seeded
// identically every time, so a given program always yields the same blocks
// (compilation is where handler branches are taken; no DES run is needed
// for coverage).
func coverageOf(p *corpus.Program, tab *syscalls.Table, evalSeed uint64) *Coverage {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{
		Name: "fuzz-ref", Cores: 1, MemGB: 1,
		Params: kernel.Params{Quiet: true},
	}, rng.New(evalSeed))
	cov := NewCoverage()
	ctx := &syscalls.Ctx{Kern: k, Core: 0, Proc: syscalls.NewProc(eng), Cov: cov}
	var ops kernel.OpList // scratch: only the coverage is kept
	results := make([]uint64, len(p.Calls))
	for i, call := range p.Calls {
		spec := tab.Get(call.Syscall)
		args := make([]uint64, len(call.Args))
		for j, a := range call.Args {
			if a.Kind == corpus.ValResult {
				args[j] = results[a.X]
			} else {
				args[j] = a.X
			}
		}
		ops.Reset()
		results[i] = spec.Compile(ctx, &ops, args)
	}
	return cov
}

// minimize removes calls while the program still reaches all the blocks it
// newly contributed, yielding the smallest program with the same signal —
// the same corpus-distillation step Syzkaller applies.
func minimize(p *corpus.Program, mustHave []uint32, tab *syscalls.Table, evalSeed uint64, stats *Stats) (*corpus.Program, *Coverage) {
	mmapID := syscalls.ID(0xffff)
	if m := tab.Lookup("mmap"); m != nil {
		mmapID = m.ID()
	}
	cur := p.Clone()
	for i := len(cur.Calls) - 1; i >= 0 && len(cur.Calls) > 1; i-- {
		// Keep mmap boilerplate that allocates the next call's buffer, as
		// Syzkaller's corpus does (the paper: "most calls with shorter
		// medians are mmap calls that allocate small buffers, which
		// themselves are passed as inputs to other system calls").
		if cur.Calls[i].Syscall == mmapID && i+1 < len(cur.Calls) &&
			takesBuffer(tab.Get(cur.Calls[i+1].Syscall)) {
			continue
		}
		trial := cur.Clone()
		copy(trial.Calls[i:], trial.Calls[i+1:])
		trial.Calls = trial.Calls[:len(trial.Calls)-1]
		dropAndShift(trial, i)
		trial.FixupResults(tab)
		if coverageOf(trial, tab, evalSeed).ContainsAll(mustHave) {
			cur = trial
			stats.Minimized++
		}
	}
	return cur, coverageOf(cur, tab, evalSeed)
}

func dropAndShift(p *corpus.Program, removed int) {
	dropRefsTo(p, removed)
	shiftRefs(p, removed, -1)
}
