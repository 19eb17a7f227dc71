package syscalls

import (
	"ksa/internal/kernel"
)

// miscSpecs returns the remaining syscall groups: the *at() family (modern
// path operations), extended attributes, inotify, time, and process/system
// information calls — broadening the modeled API toward the 300+ calls of
// the 4.16 kernel the paper analyzed.
func miscSpecs() []*Spec {
	atPath := func(name string, cats Category, journalWork float64, bJournal uint8) *Spec {
		return &Spec{
			Name: name, Cats: cats,
			Args: []ArgSpec{{Name: "dirfd", Kind: ArgFD}, {Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				l.Compute(us(0.2)) // dirfd resolution
				pathLookup(ctx, l, args[1], 1)
				if journalWork > 0 {
					dentryMutate(ctx, l, args[1], us(1.5))
					journalTxn(ctx, l, us(journalWork), bJournal)
				}
				return 0
			},
		}
	}
	xattr := func(name string, cats Category, write bool) *Spec {
		return &Spec{
			Name: name, Cats: cats, Weight: 0.8,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "len", Kind: ArgSize, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Crit(inodeLock(ctx, args[0]), us(1.1))
				if write {
					ctx.cover(4)
					journalTxn(ctx, l, us(3.5), 5)
				} else {
					ctx.cover(7)
					l.Compute(copyCost(args[1]))
				}
				return 0
			},
		}
	}
	return []*Spec{
		atPath("mkdirat", CatFS, 8, 4),
		atPath("unlinkat", CatFS, 8, 4),
		atPath("symlinkat", CatFS, 6.5, 4),
		atPath("linkat", CatFS, 6, 4),
		atPath("readlinkat", CatFS, 0, 0),
		atPath("faccessat", CatFS|CatPerm, 0, 0),
		{
			Name: "fchmodat", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "dirfd", Kind: ArgFD}, {Name: "path", Kind: ArgPath, Domain: 64}, {Name: "mode", Kind: ArgMode, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[1], 1)
				l.Crit(inodeLock(ctx, args[1]), us(1.4))
				journalTxn(ctx, l, us(3.5), 4)
				auditRecord(ctx, l, us(6), 6)
				return 0
			},
		},
		{
			Name: "fchownat", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "dirfd", Kind: ArgFD}, {Name: "path", Kind: ArgPath, Domain: 64}, {Name: "uid", Kind: ArgUID, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[1], 1)
				l.Crit(inodeLock(ctx, args[1]), us(1.4))
				journalTxn(ctx, l, us(3.5), 4)
				auditRecord(ctx, l, us(7), 6)
				return 0
			},
		},
		{
			Name: "renameat2", Cats: CatFS, Weight: 0.8,
			Args: []ArgSpec{{Name: "old", Kind: ArgPath, Domain: 64}, {Name: "new", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				pathLookup(ctx, l, args[1], 4)
				ctx.cover(7)
				l.Crit(kernel.LockDcache, us(5.5)) // global rename_lock
				journalTxn(ctx, l, us(9), 8)
				return 0
			},
		},
		{
			Name: "statx", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "mask", Kind: ArgFlags, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				if args[1]&0x800 != 0 {
					// STATX_BTIME-style extended fields hit the inode.
					ctx.cover(4)
					l.Crit(inodeLock(ctx, args[0]), us(0.8))
				}
				l.Compute(us(0.6))
				return 0
			},
		},
		xattr("getxattr", CatFS|CatPerm, false),
		xattr("setxattr", CatFS|CatPerm, true),
		xattr("listxattr", CatFS, false),
		xattr("removexattr", CatFS|CatPerm, true),
		{
			Name: "inotify_init1", Cats: CatFS | CatFileIO, Returns: ResFD, Weight: 0.7,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(1.0), 2)
				fd := ctx.Proc.AddFD(FDEventFD)
				return uint64(fd)
			},
		},
		{
			Name: "inotify_add_watch", Cats: CatFS, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[1], 1)
				// The watched inode's fsnotify mark list.
				l.Crit(inodeLock(ctx, args[1]), us(1.6))
				return 0
			},
		},
		{
			Name: "dup3", Cats: CatFileIO, Returns: ResFD,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "flags", Kind: ArgFlags, Domain: 2}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Compute(us(0.5))
				idx := ctx.Proc.AddFD(fd.Kind)
				return uint64(idx)
			},
		},
		{
			Name: "preadv2", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "iovs", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				iovs := args[1]%8 + 1
				l.Compute(us(0.25 * float64(iovs)))
				if ctx.Kern.PageCacheHit(ctx.Core) {
					ctx.cover(1)
					l.Compute(copyCost(iovs * 4096))
				} else {
					ctx.cover(2)
					l.BlockIO(0)
					l.Compute(copyCost(iovs * 4096))
				}
				return 0
			},
		},
		{
			Name: "getcpu", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.2))
				return 0
			},
		},
		{
			Name: "gettimeofday", Cats: CatProc, Weight: 1.5,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.15)) // vDSO-adjacent fast path
				return 0
			},
		},
		{
			Name: "clock_gettime", Cats: CatProc, Weight: 1.5,
			Args: []ArgSpec{{Name: "clk", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0]%8 >= 6 {
					// Per-process CPU clocks walk the thread group.
					ctx.cover(1)
					l.Crit(kernel.LockTasklist, us(0.8))
				} else {
					ctx.cover(2)
					l.Compute(us(0.2))
				}
				return 0
			},
		},
		{
			Name: "clock_nanosleep", Cats: CatProc,
			Args: []ArgSpec{{Name: "usec", Kind: ArgMicros, Domain: 300}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.5))
				l.Sleep(us(float64(args[0] % 300)))
				return 0
			},
		},
		{
			Name: "uname", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.4))
				return 0
			},
		},
		{
			Name: "sysinfo", Cats: CatProc | CatMem,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.9)) // walks zone counters
				return 0
			},
		},
		{
			Name: "getrandom", Cats: CatPerm | CatFileIO,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.5) + copyCost(args[0]*4)) // chacha generation
				return 0
			},
		},
		{
			Name: "setsid", Cats: CatProc, Weight: 0.7,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(1.2))
				return 0
			},
		},
		{
			Name: "getsid", Cats: CatProc,
			Args: []ArgSpec{{Name: "pid", Kind: ArgPID, Domain: 128}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.6))
				return 0
			},
		},
		{
			Name: "setpgid", Cats: CatProc,
			Args: []ArgSpec{{Name: "pid", Kind: ArgPID, Domain: 128}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(1.0))
				return 0
			},
		},
		{
			Name: "getpgid", Cats: CatProc,
			Args: []ArgSpec{{Name: "pid", Kind: ArgPID, Domain: 128}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.6))
				return 0
			},
		},
		{
			Name: "sched_rr_get_interval", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(0.6))
				return 0
			},
		},
	}
}
