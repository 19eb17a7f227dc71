package syscalls

import (
	"ksa/internal/kernel"
)

// ipcSpecs returns the inter-process-communication syscalls (Figure 2(e)).
// Futexes and pipes contend on sharded hash-bucket locks, so surface-area
// benefits are real but diluted by the sharding — the paper's "modest but
// inconsistent" category. SysV calls share one global IPC lock with short
// holds.
func ipcSpecs() []*Spec {
	return []*Spec{
		{
			Name: "pipe2", Cats: CatIPC | CatFileIO, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(1.4), 3)
				l.Compute(us(0.9))
				fd := ctx.Proc.AddPipe()
				return uint64(fd)
			},
		},
		{
			Name: "futex", Cats: CatIPC,
			Args: []ArgSpec{
				{Name: "uaddr", Kind: ArgAddr, Domain: 1 << 12},
				{Name: "op", Kind: ArgConst, Domain: 4},
			},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				bucket := futexLock(ctx, args[0])
				switch args[1] % 4 {
				case 0: // FUTEX_WAIT with timeout
					ctx.cover(1)
					l.Crit(bucket, us(1.2))
					l.Sleep(us(40))
					l.Crit(bucket, us(0.8)) // timeout dequeue
				case 1: // FUTEX_WAKE
					ctx.cover(2)
					l.Crit(bucket, us(1))
					l.Crit(rqLock(ctx), us(0.7))
				case 2: // FUTEX_WAIT, immediately satisfied (value mismatch)
					ctx.cover(3)
					l.Crit(bucket, us(0.9))
				default: // FUTEX_REQUEUE
					ctx.cover(4)
					l.Crit(bucket, us(1.1))
					l.Crit(futexLock(ctx, args[0]+1), us(1))
				}
				return 0
			},
		},
		{
			Name: "msgget", Cats: CatIPC,
			Args: []ArgSpec{{Name: "key", Kind: ArgConst, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.rng().Bool(0.2) {
					ctx.cover(1) // create: namespace write
					l.Crit(kernel.LockIPC, us(1.0))
				} else {
					ctx.cover(2) // RCU lookup
					l.Compute(us(1.1))
				}
				return 0
			},
		},
		{
			Name: "msgsnd", Cats: CatIPC,
			Args: []ArgSpec{{Name: "size", Kind: ArgSize, Domain: 1 << 13}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(0.8), 3) // message buffer
				l.Crit(ipcObjLock(ctx, args[0]), us(1.8))
				l.Compute(copyCost(args[0]))
				return 0
			},
		},
		{
			Name: "msgrcv", Cats: CatIPC,
			Args: []ArgSpec{{Name: "size", Kind: ArgSize, Domain: 1 << 13}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.rng().Bool(0.35) {
					// Queue empty: block until timeout.
					ctx.cover(1)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.4))
					l.Sleep(us(50))
				} else {
					ctx.cover(2)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.8))
					l.Compute(copyCost(args[0]))
				}
				return 0
			},
		},
		{
			Name: "semget", Cats: CatIPC,
			Args: []ArgSpec{{Name: "nsems", Kind: ArgConst, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.rng().Bool(0.2) {
					ctx.cover(1)
					l.Crit(kernel.LockIPC, us(1.0))
				} else {
					ctx.cover(2)
					l.Compute(us(1.0))
				}
				return 0
			},
		},
		{
			Name: "semop", Cats: CatIPC,
			Args: []ArgSpec{{Name: "nops", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(ipcObjLock(ctx, args[0]), us(1.2+0.3*float64(args[0]%8)))
				return 0
			},
		},
		{
			Name: "semtimedop", Cats: CatIPC,
			Args: []ArgSpec{{Name: "nops", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.rng().Bool(0.3) {
					ctx.cover(1)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.2))
					l.Sleep(us(60))
				} else {
					ctx.cover(2)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.5))
				}
				return 0
			},
		},
		{
			Name: "shmget", Cats: CatIPC | CatMem,
			Args: []ArgSpec{{Name: "size", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockIPC, us(0.9))
				pageAlloc(ctx, l, us(1.6), 3)
				return 0
			},
		},
		{
			Name: "shmat", Cats: CatIPC | CatMem,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.8))
				l.MMapWrite(us(2))
				ctx.Proc.VMAs++
				return 0
			},
		},
		{
			Name: "shmdt", Cats: CatIPC | CatMem,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Proc.VMAs == 0 {
					ctx.cover(1)
					l.Compute(us(0.5))
					return 0
				}
				ctx.cover(2)
				l.MMapWrite(us(2))
				l.IPI() // detach unmaps: TLB shootdown
				ctx.Proc.VMAs--
				return 0
			},
		},
		{
			Name: "eventfd2", Cats: CatIPC | CatFileIO, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.8))
				fd := ctx.Proc.AddFD(FDEventFD)
				return uint64(fd)
			},
		},
		{
			Name: "epoll_create1", Cats: CatIPC | CatFileIO, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(1.1), 3)
				fd := ctx.Proc.AddFD(FDEpoll)
				return uint64(fd)
			},
		},
		{
			Name: "epoll_ctl", Cats: CatIPC,
			Args: []ArgSpec{{Name: "epfd", Kind: ArgFD}, {Name: "fd", Kind: ArgFD}, {Name: "op", Kind: ArgConst, Domain: 3}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				epfd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(inodeLock(ctx, epfd.Inode), us(1.3))
				return 0
			},
		},
		{
			Name: "epoll_wait", Cats: CatIPC,
			Args: []ArgSpec{{Name: "epfd", Kind: ArgFD}, {Name: "timeout_us", Kind: ArgMicros, Domain: 100}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				epfd, _ := ctx.Proc.LookupFD(args[0])
				l.Crit(inodeLock(ctx, epfd.Inode), us(0.9))
				if args[1] > 0 && ctx.rng().Bool(0.5) {
					ctx.cover(1)
					l.Sleep(us(float64(args[1] % 100)))
				} else {
					ctx.cover(2)
				}
				return 0
			},
		},
		{
			Name: "socketpair", Cats: CatIPC | CatFileIO, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(2), 3)
				l.Compute(us(1.2))
				fd := ctx.Proc.AddFD(FDSocket)
				ctx.Proc.AddFD(FDSocket)
				return uint64(fd)
			},
		},
		{
			Name: "sendto", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 15}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(pipeLock(ctx, fd.Inode), us(1.2)) // unix socket buffer lock
				l.Compute(copyCost(args[1]))
				return 0
			},
		},
		{
			Name: "recvfrom", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 15}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				if ctx.rng().Bool(0.3) {
					ctx.cover(1)
					l.Crit(pipeLock(ctx, fd.Inode), us(0.9))
					l.Sleep(us(40))
				} else {
					ctx.cover(2)
					l.Crit(pipeLock(ctx, fd.Inode), us(1.1))
					l.Compute(copyCost(args[1]))
				}
				return 0
			},
		},
		{
			Name: "signalfd4", Cats: CatIPC | CatProc, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(1))
				fd := ctx.Proc.AddFD(FDEventFD)
				return uint64(fd)
			},
		},
		{
			Name: "timerfd_create", Cats: CatIPC | CatProc, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(1))
				fd := ctx.Proc.AddFD(FDTimer)
				return uint64(fd)
			},
		},
		{
			Name: "timerfd_settime", Cats: CatIPC | CatProc,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(rqLock(ctx), us(1.1)) // timer wheel on this CPU
				return 0
			},
		},
		{
			Name: "mq_open", Cats: CatIPC, Returns: ResFD, Weight: 0.7,
			Args: []ArgSpec{{Name: "name", Kind: ArgPath, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(kernel.LockIPC, us(0.8))
				dentryMutate(ctx, l, args[0], us(1.2)) // mqueue fs dentry
				fd := ctx.Proc.AddFD(FDFile)
				return uint64(fd)
			},
		},
		{
			Name: "mq_timedsend", Cats: CatIPC, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Crit(ipcObjLock(ctx, args[0]), us(1.6))
				l.Compute(copyCost(args[1]))
				return 0
			},
		},
		{
			Name: "mq_timedreceive", Cats: CatIPC, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.rng().Bool(0.4) {
					ctx.cover(1)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.3))
					l.Sleep(us(50))
				} else {
					ctx.cover(2)
					l.Crit(ipcObjLock(ctx, args[0]), us(1.6))
				}
				return 0
			},
		},
	}
}
