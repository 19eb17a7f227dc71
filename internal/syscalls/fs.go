package syscalls

import (
	"ksa/internal/kernel"
)

// fsSpecs returns the filesystem-management syscalls (Figure 2(d)).
// Mutating operations serialize on the journal and on global dcache state
// (rename_lock); these are the category's extreme-outlier producers in
// large shared kernels.
func fsSpecs() []*Spec {
	statLike := func(extra float64) CompileFunc {
		return func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
			pathLookup(ctx, l, args[0], 1)
			l.Compute(us(0.5 + extra))
			return 0
		}
	}
	return []*Spec{
		{
			Name: "open", Cats: CatFS | CatFileIO, Returns: ResFD, Weight: 2.0,
			Args: []ArgSpec{
				{Name: "path", Kind: ArgPath, Domain: 64},
				{Name: "flags", Kind: ArgFlags, Domain: 1 << 10},
			},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				const oCreat, oTrunc = 0x40, 0x200
				if args[1]&oCreat != 0 {
					ctx.cover(4)
					dentryMutate(ctx, l, args[0], us(1.4)) // new dentry
					journalTxn(ctx, l, us(6), 5)
				}
				if args[1]&oTrunc != 0 {
					ctx.cover(7)
					journalTxn(ctx, l, us(3.5), 8)
				}
				l.Compute(us(0.5))
				fd := ctx.Proc.AddFD(FDFile)
				return uint64(fd)
			},
		},
		{
			Name: "openat", Cats: CatFS | CatFileIO, Returns: ResFD,
			Args: []ArgSpec{
				{Name: "path", Kind: ArgPath, Domain: 64},
				{Name: "flags", Kind: ArgFlags, Domain: 1 << 10},
			},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				l.Compute(us(0.2)) // dirfd resolution
				pathLookup(ctx, l, args[0], 1)
				if args[1]&0x40 != 0 {
					ctx.cover(4)
					dentryMutate(ctx, l, args[0], us(1.4))
					journalTxn(ctx, l, us(6), 5)
				}
				fd := ctx.Proc.AddFD(FDFile)
				return uint64(fd)
			},
		},
		{
			Name: "stat", Cats: CatFS, Weight: 2.0,
			Args:    []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: statLike(0),
		},
		{
			Name: "lstat", Cats: CatFS,
			Args:    []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: statLike(0.05),
		},
		{
			Name: "newfstatat", Cats: CatFS,
			Args:    []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: statLike(0.1),
		},
		{
			Name: "fstat", Cats: CatFS | CatFileIO, Weight: 1.8,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.45))
				return 0
			},
		},
		{
			Name: "access", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "mode", Kind: ArgMode, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				ctx.cover(4)
				l.Compute(us(0.4)) // permission walk
				return 0
			},
		},
		{
			Name: "chmod", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "mode", Kind: ArgMode, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Crit(inodeLock(ctx, args[0]), us(1.4))
				journalTxn(ctx, l, us(3.5), 4)
				auditRecord(ctx, l, us(6), 6)
				return 0
			},
		},
		{
			Name: "fchmod", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "mode", Kind: ArgMode, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				l.Crit(inodeLock(ctx, fd.Inode), us(1.3))
				journalTxn(ctx, l, us(3.2), 1)
				auditRecord(ctx, l, us(6), 3)
				return 0
			},
		},
		{
			Name: "chown", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "uid", Kind: ArgUID, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Crit(inodeLock(ctx, args[0]), us(1.5))
				journalTxn(ctx, l, us(3.5), 4)
				auditRecord(ctx, l, us(7), 6)
				return 0
			},
		},
		{
			Name: "fchown", Cats: CatFS | CatPerm,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "uid", Kind: ArgUID, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				l.Crit(inodeLock(ctx, fd.Inode), us(1.4))
				journalTxn(ctx, l, us(3.2), 1)
				auditRecord(ctx, l, us(7), 3)
				return 0
			},
		},
		{
			Name: "mkdir", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "mode", Kind: ArgMode, Domain: 1 << 9}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				dentryMutate(ctx, l, args[0], us(1.6))
				journalTxn(ctx, l, us(8), 4)
				return 0
			},
		},
		{
			Name: "rmdir", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				dentryMutate(ctx, l, args[0], us(1.7))
				journalTxn(ctx, l, us(7.5), 4)
				return 0
			},
		},
		{
			Name: "unlink", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				dentryMutate(ctx, l, args[0], us(1.6))
				journalTxn(ctx, l, us(8), 4)
				if ctx.rng().Bool(0.3) {
					// Last link: free the inode's pages too.
					lruTouch(ctx, l, us(1.8), 6)
					pageAlloc(ctx, l, us(1.4), 8)
				}
				return 0
			},
		},
		{
			Name: "link", Cats: CatFS,
			Args: []ArgSpec{{Name: "old", Kind: ArgPath, Domain: 64}, {Name: "new", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				pathLookup(ctx, l, args[1], 4)
				dentryMutate(ctx, l, args[1], us(1.3))
				journalTxn(ctx, l, us(6), 7)
				return 0
			},
		},
		{
			Name: "symlink", Cats: CatFS,
			Args: []ArgSpec{{Name: "target", Kind: ArgPath, Domain: 64}, {Name: "link", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[1], 1)
				dentryMutate(ctx, l, args[1], us(1.4))
				journalTxn(ctx, l, us(6.5), 4)
				return 0
			},
		},
		{
			Name: "rename", Cats: CatFS, Weight: 0.8,
			Args: []ArgSpec{{Name: "old", Kind: ArgPath, Domain: 64}, {Name: "new", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				pathLookup(ctx, l, args[1], 4)
				// rename_lock is global: cross-directory rename serializes
				// the whole dcache.
				ctx.cover(7)
				l.Crit(kernel.LockDcache, us(5.5))
				journalTxn(ctx, l, us(9), 8)
				return 0
			},
		},
		{
			Name: "readlink", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Compute(us(0.7))
				return 0
			},
		},
		{
			Name: "getdents64", Cats: CatFS | CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 14}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Kern.PageCacheHit(ctx.Core) {
					ctx.cover(1)
					l.Compute(us(1 + 0.0005*float64(args[1]%(1<<14))))
				} else {
					ctx.cover(2)
					l.BlockIO(0)
					l.Compute(us(1.5))
				}
				return 0
			},
		},
		{
			Name: "truncate", Cats: CatFS | CatFileIO,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "len", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Crit(inodeLock(ctx, args[0]), us(2.2))
				l.Crit(kernel.LockLRU, us(1.5))
				journalTxn(ctx, l, us(4.5), 4)
				return 0
			},
		},
		{
			Name: "statfs", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Crit(kernel.LockMount, us(1))
				return 0
			},
		},
		{
			Name: "fstatfs", Cats: CatFS,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockMount, us(0.9))
				return 0
			},
		},
		{
			Name: "utimensat", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Crit(inodeLock(ctx, args[0]), us(1.2))
				journalTxn(ctx, l, us(2.8), 4)
				return 0
			},
		},
		{
			Name: "sync", Cats: CatFS | CatFileIO, Weight: 0.25,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				// Flush every dirty inode: the journal is held through the
				// log writes to the device (a commit, like journalTxn's
				// close), so every waiter also absorbs the device round
				// trips.
				l.Lock(kernel.LockJournal)
				l.Compute(us(14))
				l.BlockIO(0)
				l.BlockIO(0)
				l.Unlock(kernel.LockJournal)
				return 0
			},
		},
		{
			Name: "syncfs", Cats: CatFS | CatFileIO, Weight: 0.3,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				// Single-filesystem commit: journal held through the log
				// write.
				l.Lock(kernel.LockJournal)
				l.Compute(us(10))
				l.BlockIO(0)
				l.Unlock(kernel.LockJournal)
				return 0
			},
		},
		{
			Name: "mount", Cats: CatFS, Weight: 0.15,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				ctx.cover(4)
				l.Crit(kernel.LockMount, us(16))
				l.Crit(kernel.LockDcache, us(3))
				return 0
			},
		},
	}
}
