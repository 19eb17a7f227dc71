package syscalls

import (
	"ksa/internal/kernel"
)

// procSpecs returns the process-management / scheduling syscalls
// (Figure 2(a)'s category). The contended structures are the global
// tasklist lock, the pid allocator, and the load-balancing path; fork-like
// calls are the category's main tail producers in shared kernels.
func procSpecs() []*Spec {
	return []*Spec{
		{
			Name: "getpid", Cats: CatProc, Weight: 2.2,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.25))
				return 0
			},
		},
		{
			Name: "getppid", Cats: CatProc, Weight: 1.6,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.25))
				return 0
			},
		},
		{
			Name: "gettid", Cats: CatProc, Weight: 1.6,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.22))
				return 0
			},
		},
		{
			Name: "sched_yield", Cats: CatProc, Weight: 1.8,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(0.5))
				return 0
			},
		},
		{
			Name: "fork", Cats: CatProc | CatMem, Weight: 0.45,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				// Duplicate the mm: page-table copy under mmap_sem.
				l.MMapRead(us(12) + 4*vmaWalk(ctx.Proc.VMAs))
				// Allocate task struct and stack.
				pageAlloc(ctx, l, us(3.5), 3)
				// PID allocation and tasklist insertion are globally
				// serialized.
				l.Crit(kernel.LockPIDMap, us(0.8))
				l.Crit(kernel.LockTasklist, us(1.2))
				// Wake the child onto a runqueue, possibly balancing.
				if ctx.rng().Bool(0.3) {
					ctx.cover(2)
					l.Crit(kernel.LockLoadBalance, us(3))
				}
				l.Crit(rqLock(ctx), us(1))
				ctx.Proc.Children++
				return 0
			},
		},
		{
			Name: "vfork", Cats: CatProc, Weight: 0.5,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(3), 2)
				l.Crit(kernel.LockPIDMap, us(0.8))
				l.Crit(kernel.LockTasklist, us(1.0))
				ctx.Proc.Children++
				return 0
			},
		},
		{
			Name: "clone", Cats: CatProc, Weight: 0.5,
			Args: []ArgSpec{{Name: "flags", Kind: ArgFlags, Domain: 1 << 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				const cloneVM = 0x100
				if args[0]&cloneVM != 0 {
					// Thread: shares the mm, no page-table copy.
					ctx.cover(1)
					l.Compute(us(4))
				} else {
					ctx.cover(2)
					l.MMapRead(us(10) + 4*vmaWalk(ctx.Proc.VMAs))
				}
				pageAlloc(ctx, l, us(3), 3)
				l.Crit(kernel.LockPIDMap, us(0.8))
				l.Crit(kernel.LockTasklist, us(1.1))
				l.Crit(rqLock(ctx), us(1))
				ctx.Proc.Children++
				return 0
			},
		},
		{
			Name: "execve", Cats: CatProc | CatFS, Weight: 0.5,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				// Tear down the old mm and map the new image.
				l.MMapWrite(us(18))
				pageAlloc(ctx, l, us(4), 5)
				if ctx.rng().Bool(0.15) {
					ctx.cover(4)
					l.BlockIO(0) // cold text pages
				}
				l.Crit(kernel.LockTasklist, us(1.5))
				ctx.Proc.VMAs = 4
				return 0
			},
		},
		{
			Name: "wait4", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Proc.Children == 0 {
					ctx.cover(1)
					l.Compute(us(0.6)) // ECHILD fast path
					return 0
				}
				ctx.cover(2)
				l.Crit(kernel.LockTasklist, us(1.4))
				l.Sleep(us(30))
				l.Crit(kernel.LockTasklist, us(1.2)) // reap
				l.Crit(kernel.LockPIDMap, us(0.5))
				ctx.Proc.Children--
				return 0
			},
		},
		{
			Name: "waitid", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Proc.Children == 0 {
					ctx.cover(1)
					l.Compute(us(0.6))
					return 0
				}
				ctx.cover(2)
				l.Crit(kernel.LockTasklist, us(1.4))
				l.Sleep(us(20))
				l.Crit(kernel.LockTasklist, us(1.1))
				ctx.Proc.Children--
				return 0
			},
		},
		{
			Name: "kill", Cats: CatProc,
			Args: []ArgSpec{{Name: "pid", Kind: ArgPID, Domain: 128}, {Name: "sig", Kind: ArgSig, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(1.0))
				if args[1] != 0 {
					ctx.cover(2)
					l.Compute(us(1.2)) // queue the signal
				}
				return 0
			},
		},
		{
			Name: "tgkill", Cats: CatProc,
			Args: []ArgSpec{{Name: "tid", Kind: ArgPID, Domain: 128}, {Name: "sig", Kind: ArgSig, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.8))
				l.Compute(us(0.8))
				return 0
			},
		},
		{
			Name: "rt_sigaction", Cats: CatProc, Weight: 1.7,
			Args: []ArgSpec{{Name: "sig", Kind: ArgSig, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.7))
				return 0
			},
		},
		{
			Name: "rt_sigprocmask", Cats: CatProc, Weight: 1.7,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.4))
				return 0
			},
		},
		{
			Name: "rt_sigpending", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.4))
				return 0
			},
		},
		{
			Name: "sched_getaffinity", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.8))
				return 0
			},
		},
		{
			Name: "sched_setaffinity", Cats: CatProc,
			Args: []ArgSpec{{Name: "mask", Kind: ArgFlags, Domain: 1 << 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockLoadBalance, us(0.9))
				l.Crit(rqLock(ctx), us(1.2))
				if args[0] != 0 && args[0]&1 == 0 {
					// Migration off the current CPU.
					ctx.cover(2)
					l.Crit(kernel.LockLoadBalance, us(1.4))
				}
				return 0
			},
		},
		{
			Name: "sched_setscheduler", Cats: CatProc,
			Args: []ArgSpec{{Name: "policy", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(2))
				l.Crit(kernel.LockLoadBalance, us(1.2))
				return 0
			},
		},
		{
			Name: "sched_getparam", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(0.7))
				return 0
			},
		},
		{
			Name: "setpriority", Cats: CatProc,
			Args: []ArgSpec{{Name: "nice", Kind: ArgConst, Domain: 40}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(1.1))
				return 0
			},
		},
		{
			Name: "getpriority", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.6))
				return 0
			},
		},
		{
			Name: "nanosleep", Cats: CatProc,
			Args: []ArgSpec{{Name: "usec", Kind: ArgMicros, Domain: 250}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.6))
				l.Sleep(us(float64(args[0] % 250)))
				return 0
			},
		},
		{
			Name: "getrusage", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.9))
				return 0
			},
		},
		{
			Name: "times", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.9))
				return 0
			},
		},
		{
			Name: "prlimit64", Cats: CatProc,
			Args: []ArgSpec{{Name: "res", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.7))
				return 0
			},
		},
		{
			Name: "personality", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.3))
				return 0
			},
		},
	}
}
