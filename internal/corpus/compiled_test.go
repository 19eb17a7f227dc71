package corpus

import (
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// newTestKernel builds a small noisy (non-Quiet) kernel so latency vectors
// exercise noise streams, locks, and block I/O — everything the identity
// check below must reproduce exactly.
func newTestKernel(seed uint64) (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "t", Cores: 2, MemGB: 2}, rng.New(seed))
	return eng, k
}

// runInterpreted is the pre-compile call-by-call interpreter, kept
// verbatim as the oracle the compiled replay path must match bit for bit:
// per-call table lookup, raw argument materialization, Spec.Compile's
// normalization, a fresh task per call, and the recursive closure chain.
func runInterpreted(r *Runner, p *Program, perCall func(i int, lat sim.Time), done func()) {
	results := make([]uint64, len(p.Calls))
	var exec func(i int)
	exec = func(i int) {
		if i >= len(p.Calls) {
			if done != nil {
				done()
			}
			return
		}
		call := p.Calls[i]
		spec := r.Table.Get(call.Syscall)
		args := make([]uint64, len(call.Args))
		for j, a := range call.Args {
			switch a.Kind {
			case ValResult:
				args[j] = results[a.X]
			default:
				args[j] = a.X
			}
		}
		ctx := &syscalls.Ctx{Kern: r.Kern, Core: r.Core, Proc: r.Proc, Cov: r.Cov}
		var l kernel.OpList
		results[i] = spec.Compile(ctx, &l, args)
		task := &kernel.Task{
			Ops:       l.Ops(),
			AddrSpace: r.Proc.MM,
			OnDone: func(lat sim.Time) {
				if perCall != nil {
					perCall(i, lat)
				}
				r.Eng.After(InterCallGap, func() { exec(i + 1) })
			},
		}
		r.Kern.Submit(r.Core, task)
	}
	exec(0)
}

// trickyProgram exercises every argument normalization the compiler must
// reproduce: result references, constants above their domain (reduced),
// missing trailing arguments (zero-filled), and extra arguments (dropped).
func trickyProgram(t *testing.T) *Program {
	t.Helper()
	open := mustSpec(t, "open")
	read := mustSpec(t, "read")
	write := mustSpec(t, "write")
	getpid := mustSpec(t, "getpid")
	return &Program{Calls: []Call{
		{Syscall: open.ID(), Args: []ArgValue{Const(5), Const(1 << 40)}},         // huge const → domain-reduced
		{Syscall: read.ID(), Args: []ArgValue{Result(0), Const(4096), Const(7)}}, // extra arg → dropped
		{Syscall: write.ID(), Args: []ArgValue{Result(0)}},                       // missing arg → zero-filled
		{Syscall: getpid.ID()}, // no args at all
		{Syscall: read.ID(), Args: []ArgValue{Result(0), Const(1<<17 + 13)}}, // const exactly at domain edge
	}}
}

// The compiled replay must be observably identical to the interpreter:
// same per-call latencies (to the nanosecond, through noise, locks, and
// cache draws), same process state afterward.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		p := trickyProgram(t)

		engA, kA := newTestKernel(seed)
		rA := NewRunner(engA, kA, 0, syscalls.Default())
		var latsA []sim.Time
		runInterpreted(rA, p, func(i int, lat sim.Time) { latsA = append(latsA, lat) }, nil)
		engA.Run()

		engB, kB := newTestKernel(seed)
		rB := NewRunner(engB, kB, 0, syscalls.Default())
		var latsB []sim.Time
		rB.RunCompiled(Compile(p, nil), func(i int, lat sim.Time) { latsB = append(latsB, lat) }, nil)
		engB.Run()

		if len(latsA) != len(p.Calls) || len(latsB) != len(p.Calls) {
			t.Fatalf("seed %d: call counts %d/%d, want %d", seed, len(latsA), len(latsB), len(p.Calls))
		}
		for i := range latsA {
			if latsA[i] != latsB[i] {
				t.Fatalf("seed %d call %d: interpreted %v != compiled %v", seed, i, latsA[i], latsB[i])
			}
		}
		if rA.Proc.NumFDs() != rB.Proc.NumFDs() {
			t.Fatalf("seed %d: fd tables diverged: %d vs %d", seed, rA.Proc.NumFDs(), rB.Proc.NumFDs())
		}
		if engA.Now() != engB.Now() || engA.Executed() != engB.Executed() {
			t.Fatalf("seed %d: engines diverged: now %v/%v events %d/%d",
				seed, engA.Now(), engB.Now(), engA.Executed(), engB.Executed())
		}
	}
}

// A reused runner (ResetProc between programs) must behave exactly like a
// fresh one — the contract varbench's per-core persistent runners rely on.
func TestResetProcMatchesFreshRunner(t *testing.T) {
	p := trickyProgram(t)
	cp := Compile(p, nil)

	// Fresh runner per iteration.
	engA, kA := newTestKernel(5)
	var latsA []sim.Time
	record := func(dst *[]sim.Time) func(int, sim.Time) {
		return func(_ int, lat sim.Time) { *dst = append(*dst, lat) }
	}
	rA1 := NewRunner(engA, kA, 0, syscalls.Default())
	rA1.RunCompiled(cp, record(&latsA), func() {
		rA2 := NewRunner(engA, kA, 0, syscalls.Default())
		rA2.RunCompiled(cp, record(&latsA), nil)
	})
	engA.Run()

	// One runner, reset between iterations.
	engB, kB := newTestKernel(5)
	var latsB []sim.Time
	rB := NewRunner(engB, kB, 0, syscalls.Default())
	rB.RunCompiled(cp, record(&latsB), func() {
		rB.ResetProc()
		rB.RunCompiled(cp, record(&latsB), nil)
	})
	engB.Run()

	if len(latsA) != 2*len(p.Calls) || len(latsB) != len(latsA) {
		t.Fatalf("lat counts %d/%d, want %d", len(latsA), len(latsB), 2*len(p.Calls))
	}
	for i := range latsA {
		if latsA[i] != latsB[i] {
			t.Fatalf("call %d: fresh %v != reused %v", i, latsA[i], latsB[i])
		}
	}
}

func TestCompileRejectsOutOfRangeRef(t *testing.T) {
	read := mustSpec(t, "read")
	p := &Program{Calls: []Call{
		{Syscall: read.ID(), Args: []ArgValue{{Kind: ValResult, X: 99}, Const(1)}},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("Compile accepted a result ref beyond the program")
		}
	}()
	Compile(p, nil)
}

// A warmed runner replays a compiled program without allocating: the
// argument and result arenas, the op list every call compiles into, the
// process ResetProc resets in place, the task and its continuations are
// all reused. What is left is the executor's two allocations per
// block-device request: about one iteration in ten issues one, under the
// one-per-run AllocsPerRun counts.
func TestCompiledIterationAllocBudget(t *testing.T) {
	eng, k := newTestKernel(11)
	r := NewRunner(eng, k, 0, syscalls.Default())
	p := trickyProgram(t)
	cp := Compile(p, nil)
	// Warm the arenas, the op list, lock pages, and continuation closures.
	for i := 0; i < 3; i++ {
		r.ResetProc()
		r.RunCompiled(cp, nil, nil)
		eng.Run()
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.ResetProc()
		r.RunCompiled(cp, nil, nil)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("compiled iteration allocated %.1f times, want 0", allocs)
	}
}
