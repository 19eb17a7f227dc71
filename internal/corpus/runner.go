package corpus

import (
	"errors"

	"ksa/internal/kernel"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// InterCallGap is the modeled user-space time between consecutive syscalls
// of a program (argument setup, loop overhead). The paper's workloads are
// deliberately minimally hardware-intensive, so the gap is tiny.
const InterCallGap = 150 * sim.Nanosecond

// ErrSyscallUnmapped is the named ENOSYS-style error for a syscall
// dispatched outside a specialized kernel's profile. The call is never
// compiled or executed: the runner charges only the entry fast-fail,
// records ENOSYSResult as the call's return value, bumps the kernel's
// Stats.UnmappedCalls, and reports the fault through Runner.OnFault.
var ErrSyscallUnmapped = errors.New("syscall not mapped on specialized kernel (ENOSYS)")

// ENOSYSResult is the return value of a faulted dispatch: -ENOSYS (38) in
// two's complement, the way the raw syscall ABI reports it.
const ENOSYSResult = ^uint64(38) + 1

// enosysFailCost is the on-CPU cost of the dispatch fast-fail: table
// lookup, bounds check, error return. No locks, no subsystem entry.
const enosysFailCost = 120 * sim.Nanosecond

// enosysOps is the shared micro-op sequence of a faulted dispatch. It is
// read-only by contract (the executor never mutates Task.Ops).
var enosysOps = []kernel.Op{{Kind: kernel.OpCompute, Dur: enosysFailCost}}

// Runner executes programs on one core of one kernel with a persistent
// process context, resolving result references as calls complete.
//
// A runner executes one program at a time (the next Run/RunCompiled may
// only start after the previous one's done callback has fired), and one
// call of it at a time; in exchange it reuses its argument and result
// arenas, its op list, its task, its process and its continuation closures
// across calls and across iterations, so once warmed, replaying a compiled
// program allocates nothing.
type Runner struct {
	Table *syscalls.Table
	Eng   *sim.Engine
	Kern  *kernel.Kernel
	Core  int
	Proc  *syscalls.Proc
	// Cov receives coverage; nil means discard.
	Cov syscalls.CoverageSink
	// PolluteCaches marks this runner as a cache-polluting co-tenant: each
	// program run registers its breadth (touching fresh files, mappings,
	// pipes) with the kernel, degrading other tenants' cache hit rates.
	// Single-tenant measurement harnesses leave it false — the calibrated
	// baseline hit rates already reflect the corpus's self-pollution.
	PolluteCaches bool
	// Label, if non-nil, names each submitted task (given the call index
	// and syscall name) so an attached tracer can map blame records back
	// to call sites. Nil leaves tasks unlabeled.
	Label func(call int, name string) string
	// OnFault, if non-nil, receives every out-of-profile dispatch fault
	// (err is always ErrSyscallUnmapped). Nil discards; the fault is still
	// counted in the kernel's Stats.UnmappedCalls either way.
	OnFault func(call int, sys syscalls.ID, err error)
	// Tenant is the stable tenant identity stamped on every submitted task
	// (trace events, isolation accounting). The harness assigns one tenant
	// per machine core; zero is fine for single-tenant users.
	Tenant int

	// Replay arenas, reused across calls and iterations.
	results []uint64    // per-call return values of the in-flight program
	argBuf  []uint64    // scratch for one call's materialized arguments
	task    kernel.Task // the one in-flight kernel entry
	cr      compiledRun // execution state + reusable continuations
}

// compiledRun is the execution state of the runner's in-flight compiled
// program. Its continuation closures are built once per runner and reused
// for every call of every subsequent program, replacing the recursive
// closure chain the interpreted path allocated per call.
type compiledRun struct {
	r       *Runner
	cp      *Compiled
	perCall func(i int, lat sim.Time)
	done    func()
	i       int
	ctx     syscalls.Ctx
	// ops receives each call's micro-ops. The in-flight task reads them
	// until its OnDone, and the next call resets the list only after that.
	ops    kernel.OpList
	onDone func(lat sim.Time)
	next   func()
}

// NewRunner builds a runner with a fresh process on the given core. A nil
// table means syscalls.Default().
func NewRunner(eng *sim.Engine, k *kernel.Kernel, core int, tab *syscalls.Table) *Runner {
	if tab == nil {
		tab = syscalls.Default()
	}
	r := &Runner{
		Table: tab,
		Eng:   eng,
		Kern:  k,
		Core:  core,
		Proc:  syscalls.NewProc(eng),
		Cov:   syscalls.NopCoverage{},
	}
	r.ResetProc()
	return r
}

// ResetProc returns the runner's process to a fresh context — empty
// address space, a stdio-only descriptor table, root credentials — as if
// the program were exec'd anew, while the runner's arenas and scheduling
// state persist. Iteration-oriented harnesses (varbench resets before
// every recorded iteration) use it to reproduce the exact behavior of
// building a new runner without discarding the warmed replay arenas. The
// process is reset in place (syscalls.Proc.Reset), so r.Proc keeps its
// identity and its storage.
func (r *Runner) ResetProc() {
	r.Proc.Reset()
	// Each rank works on private kernel objects (its own directory, its own
	// mappings); the salt keeps its hashes off other ranks' shards.
	r.Proc.Salt = uint64(r.Core+1) * 0xbf58476d1ce4e5b9
}

// Result returns call i's return value in the in-flight (or just
// finished) program — ENOSYSResult for faulted dispatches. Valid from
// call i's perCall callback until the next Run/RunCompiled.
func (r *Runner) Result(i int) uint64 { return r.results[i] }

// Run executes the program call-by-call. perCall, if non-nil, receives each
// call's index and latency; done, if non-nil, runs after the last call.
// Run returns immediately; execution proceeds in virtual time on the
// engine.
//
// Run compiles the program first and replays the compiled form; callers
// that execute the same program repeatedly should Compile once themselves
// and use RunCompiled.
func (r *Runner) Run(p *Program, perCall func(i int, lat sim.Time), done func()) {
	r.RunCompiled(Compile(p, r.Table), perCall, done)
}

// RunCompiled replays a compiled program, observably identical to Run on
// the source program (bit-identical latencies, results, coverage, and
// labels) but with the per-call table lookups, argument normalization, and
// control-flow closures hoisted out of the loop.
func (r *Runner) RunCompiled(cp *Compiled, perCall func(i int, lat sim.Time), done func()) {
	if r.PolluteCaches {
		r.Kern.Pollute(float64(len(cp.calls)))
	}
	if cap(r.results) < len(cp.calls) {
		r.results = make([]uint64, len(cp.calls))
	} else {
		r.results = r.results[:len(cp.calls)]
		clear(r.results)
	}
	if cap(r.argBuf) < cp.maxArgs {
		r.argBuf = make([]uint64, cp.maxArgs)
	}
	cr := &r.cr
	cr.cp, cr.perCall, cr.done, cr.i = cp, perCall, done, 0
	if cr.r == nil {
		cr.r = r
		cr.onDone = func(lat sim.Time) {
			if cr.perCall != nil {
				cr.perCall(cr.i, lat)
			}
			cr.r.Eng.After(InterCallGap, cr.next)
		}
		cr.next = func() {
			cr.i++
			cr.exec()
		}
	}
	cr.exec()
}

// exec materializes and submits call cr.i, or finishes the program.
func (cr *compiledRun) exec() {
	r := cr.r
	if cr.i >= len(cr.cp.calls) {
		if cr.done != nil {
			cr.done()
		}
		return
	}
	c := &cr.cp.calls[cr.i]
	t := &r.task
	if !r.Kern.SyscallMapped(uint16(c.spec.ID())) {
		// Out-of-profile dispatch on a specialized kernel: fault with the
		// named ENOSYS-style error instead of silently executing. The call
		// costs only the entry fast-fail, takes no locks, draws no
		// randomness, and mutates no process state, so everything after it
		// proceeds exactly as if the call had returned an error.
		r.Kern.RecordUnmappedCall()
		if r.OnFault != nil {
			r.OnFault(cr.i, c.spec.ID(), ErrSyscallUnmapped)
		}
		r.results[cr.i] = ENOSYSResult
		t.Ops = enosysOps
		t.AddrSpace = r.Proc.MM
		t.OnDone = cr.onDone
		t.Tenant = r.Tenant
		if r.Label != nil {
			t.Label = r.Label(cr.i, c.spec.Name)
		} else {
			t.Label = ""
		}
		r.Kern.Submit(r.Core, t)
		return
	}
	args := r.argBuf[:len(c.tmpl)]
	copy(args, c.tmpl)
	for _, ref := range c.refs {
		args[ref.arg] = r.results[ref.src] % ref.dom
	}
	cr.ctx.Kern, cr.ctx.Core, cr.ctx.Proc, cr.ctx.Cov = r.Kern, r.Core, r.Proc, r.Cov
	cr.ops.Reset()
	r.results[cr.i] = c.spec.CompilePrepared(&cr.ctx, &cr.ops, args)
	t.Ops = cr.ops.Ops()
	t.AddrSpace = r.Proc.MM
	t.OnDone = cr.onDone
	t.Tenant = r.Tenant
	if r.Label != nil {
		t.Label = r.Label(cr.i, c.spec.Name)
	} else {
		t.Label = ""
	}
	r.Kern.Submit(r.Core, t)
}
