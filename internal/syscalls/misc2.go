package syscalls

import (
	"ksa/internal/kernel"
)

// misc2Specs continues broadening the API model: namespaces (the container
// substrate itself — unshare/setns touch the very structures Docker-style
// isolation is built from), asynchronous I/O, signal waiting, working
// directory state, resource limits, and file advice.
func misc2Specs() []*Spec {
	return []*Spec{
		{
			Name: "unshare", Cats: CatProc | CatPerm, Weight: 0.5,
			Args: []ArgSpec{{Name: "flags", Kind: ArgFlags, Domain: 1 << 7}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				const newNS, newPID, newNet = 0x1, 0x2, 0x4
				l.Compute(us(1.2))
				if args[0]&newNS != 0 {
					// New mount namespace: copy the mount tree.
					ctx.cover(1)
					l.Crit(kernel.LockMount, us(6))
					pageAlloc(ctx, l, us(2), 2)
				}
				if args[0]&newPID != 0 {
					ctx.cover(4)
					l.Crit(kernel.LockPIDMap, us(1.2))
				}
				if args[0]&newNet != 0 {
					// New netns: register devices, sysctls; slow path.
					ctx.cover(5)
					pageAlloc(ctx, l, us(4), 6)
					l.Sleep(us(120)) // synchronize_net-style grace
				}
				auditRecord(ctx, l, us(8), 8)
				return 0
			},
		},
		{
			Name: "setns", Cats: CatProc | CatPerm, Weight: 0.5,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "nstype", Kind: ArgConst, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(1.5))
				l.Crit(kernel.LockCred, us(1.2))
				auditRecord(ctx, l, us(7), 2)
				return 0
			},
		},
		{
			Name: "io_setup", Cats: CatFileIO, Weight: 0.6,
			Args: []ArgSpec{{Name: "nr", Kind: ArgConst, Domain: 256}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				// AIO ring pages are mapped into the process.
				l.MMapWrite(us(2))
				pageAlloc(ctx, l, pageWork((args[0]%256+1)*64, 0.1), 2)
				return 0
			},
		},
		{
			Name: "io_submit", Cats: CatFileIO, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "nr", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				nr := int(args[1]%8) + 1
				l.Compute(us(0.6 * float64(nr)))
				// Async submission: the device round trip happens without
				// blocking the caller for the full service on cache hits,
				// but direct I/O submissions do reach the device.
				if !ctx.Kern.PageCacheHit(ctx.Core) {
					ctx.cover(1)
					l.BlockIO(0)
				} else {
					ctx.cover(2)
				}
				return 0
			},
		},
		{
			Name: "io_getevents", Cats: CatFileIO, Weight: 0.7,
			Args: []ArgSpec{{Name: "min", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.rng().Bool(0.4) {
					ctx.cover(1)
					l.Sleep(us(50)) // wait for completions
				} else {
					ctx.cover(2)
					l.Compute(us(0.8))
				}
				return 0
			},
		},
		{
			Name: "rt_sigtimedwait", Cats: CatProc,
			Args: []ArgSpec{{Name: "usec", Kind: ArgMicros, Domain: 120}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.6))
				l.Sleep(us(float64(args[0] % 120)))
				return 0
			},
		},
		{
			Name: "sigaltstack", Cats: CatProc,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.5))
				return 0
			},
		},
		{
			Name: "pause", Cats: CatProc, Weight: 0.4,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// Modeled as a bounded wait (the harness always delivers a
				// wakeup signal eventually).
				ctx.cover(1)
				l.Sleep(us(80))
				return 0
			},
		},
		{
			Name: "chdir", Cats: CatFS,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				l.Compute(us(0.4))
				return 0
			},
		},
		{
			Name: "fchdir", Cats: CatFS,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.4))
				return 0
			},
		},
		{
			Name: "getcwd", Cats: CatFS,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// Walks up the dentry chain under rename_lock's read side;
				// modeled as compute plus a short global-dcache touch.
				ctx.cover(1)
				l.Crit(kernel.LockDcache, us(0.5))
				return 0
			},
		},
		{
			Name: "setrlimit", Cats: CatProc | CatPerm,
			Args: []ArgSpec{{Name: "res", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.8))
				auditRecord(ctx, l, us(5), 2)
				return 0
			},
		},
		{
			Name: "getrlimit", Cats: CatProc,
			Args: []ArgSpec{{Name: "res", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.4))
				return 0
			},
		},
		{
			Name: "fadvise64", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "advice", Kind: ArgConst, Domain: 6}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				const dontneed = 4
				if args[1] == dontneed {
					// Invalidates cached pages: LRU work.
					ctx.cover(1)
					lruTouch(ctx, l, us(2), 2)
				} else {
					ctx.cover(4)
					l.Compute(us(0.5))
				}
				return 0
			},
		},
		{
			Name: "sync_file_range", Cats: CatFileIO, Weight: 0.6,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 20}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.8))
				if ctx.rng().Bool(0.6) {
					ctx.cover(2)
					l.BlockIO(0)
				}
				return 0
			},
		},
		{
			Name: "mknod", Cats: CatFS, Weight: 0.6,
			Args: []ArgSpec{{Name: "path", Kind: ArgPath, Domain: 64}, {Name: "mode", Kind: ArgMode, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				pathLookup(ctx, l, args[0], 1)
				dentryMutate(ctx, l, args[0], us(1.5))
				journalTxn(ctx, l, us(6.5), 4)
				return 0
			},
		},
		{
			Name: "process_vm_readv", Cats: CatMem | CatIPC, Weight: 0.6,
			Args: []ArgSpec{{Name: "pid", Kind: ArgPID, Domain: 128}, {Name: "len", Kind: ArgSize, Domain: 1 << 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockTasklist, us(0.9)) // find the target task
				l.MMapRead(us(1.2))                  // pin its pages
				l.Compute(copyCost(args[1]))
				return 0
			},
		},
		{
			Name: "pkey_alloc", Cats: CatMem | CatPerm, Weight: 0.5,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(0.9))
				return 0
			},
		},
		{
			Name: "swapoff_probe", Cats: CatMem | CatPerm, Weight: 0.15,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// Privileged probe of swap state (the harness never swaps, so
				// this is the cheap error path plus the capability check).
				ctx.cover(1)
				l.Compute(us(0.8))
				auditRecord(ctx, l, us(6), 2)
				return 0
			},
		},
		{
			Name: "timer_create", Cats: CatProc | CatIPC, Weight: 0.7,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(0.8), 2)
				l.Crit(rqLock(ctx), us(0.7))
				return 0
			},
		},
		{
			Name: "timer_settime", Cats: CatProc, Weight: 0.7,
			Args: []ArgSpec{{Name: "usec", Kind: ArgMicros, Domain: 500}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(0.9))
				return 0
			},
		},
		{
			Name: "msgctl", Cats: CatIPC,
			Args: []ArgSpec{{Name: "cmd", Kind: ArgConst, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0]%4 == 0 {
					// IPC_RMID: namespace-level removal.
					ctx.cover(1)
					l.Crit(kernel.LockIPC, us(1.4))
				} else {
					ctx.cover(2)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.0))
				}
				return 0
			},
		},
		{
			Name: "semctl", Cats: CatIPC,
			Args: []ArgSpec{{Name: "cmd", Kind: ArgConst, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0]%4 == 0 {
					ctx.cover(1)
					l.Crit(kernel.LockIPC, us(1.3))
				} else {
					ctx.cover(2)
					l.Crit(ipcObjLock(ctx, args[0]^0x5e), us(1.0))
				}
				return 0
			},
		},
		{
			Name: "shmctl", Cats: CatIPC | CatMem,
			Args: []ArgSpec{{Name: "cmd", Kind: ArgConst, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0]%4 == 0 {
					ctx.cover(1)
					l.Crit(kernel.LockIPC, us(1.5))
					lruTouch(ctx, l, us(1.2), 3)
				} else {
					ctx.cover(2)
					l.Crit(ipcObjLock(ctx, args[0]^0xa7), us(1.0))
				}
				return 0
			},
		},
		{
			Name: "capsh_probe", Cats: CatPerm, Weight: 0.6,
			Args: []ArgSpec{{Name: "cap", Kind: ArgConst, Domain: 40}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// A capable()-style check sequence: reads the cred, no writes.
				ctx.cover(1)
				l.Compute(us(0.35))
				if ctx.Proc.Caps&(1<<(args[0]%40)) == 0 {
					ctx.cover(2)
					auditRecord(ctx, l, us(4), 3) // denial is audited
				}
				return 0
			},
		},
	}
}
