package syscalls

import (
	"ksa/internal/kernel"
)

// netSpecs returns the network syscalls. The paper's harness communicates
// over a loopback/TAP network, and its syscall corpus reaches the socket
// layer, so the model includes the AF_UNIX/loopback subset: socket state
// lives in per-socket locks (salted — sockets are process-private), while
// accept queues and ephemeral port allocation touch small shared
// structures. Network calls are classified IPC and/or file I/O, matching
// the paper's note that categories broadly reflect purpose.
func netSpecs() []*Spec {
	return []*Spec{
		{
			Name: "socket", Cats: CatIPC | CatFileIO, Returns: ResFD,
			Args: []ArgSpec{{Name: "domain", Kind: ArgConst, Domain: 4}, {Name: "type", Kind: ArgConst, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(1.3), 2) // sock + sk_buff head
				l.Compute(us(0.8))
				fd := ctx.Proc.AddFD(FDSocket)
				return uint64(fd)
			},
		},
		{
			Name: "bind", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "port", Kind: ArgConst, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// The bind hash table is global, but buckets shard by port.
				ctx.cover(1)
				l.Crit(pipeLock(ctx, args[1]^0xb1d), us(1.2))
				return 0
			},
		},
		{
			Name: "listen", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "backlog", Kind: ArgConst, Domain: 128}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(pipeLock(ctx, fd.Inode), us(0.9))
				return 0
			},
		},
		{
			Name: "connect", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "port", Kind: ArgConst, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				// Ephemeral port allocation walks a shared bitmap.
				ctx.cover(1)
				l.Crit(kernel.LockIPC, us(0.8))
				l.Crit(pipeLock(ctx, fd.Inode), us(1.4))
				if ctx.rng().Bool(0.3) {
					// Loopback handshake round trip (softirq on the peer).
					ctx.cover(2)
					l.Sleep(us(30))
				}
				return 0
			},
		},
		{
			Name: "accept4", Cats: CatIPC | CatFileIO, Returns: ResFD,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				if ctx.rng().Bool(0.4) {
					// Queue empty: block until a connection (timeout tick).
					ctx.cover(1)
					l.Crit(pipeLock(ctx, fd.Inode), us(0.8))
					l.Sleep(us(60))
					return 0
				}
				ctx.cover(2)
				l.Crit(pipeLock(ctx, fd.Inode), us(1.2))
				pageAlloc(ctx, l, us(1.1), 3) // child sock
				nfd := ctx.Proc.AddFD(FDSocket)
				return uint64(nfd)
			},
		},
		{
			Name: "sendmsg", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 15}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				pageAlloc(ctx, l, us(0.6), 2) // skb
				l.Crit(pipeLock(ctx, fd.Inode), us(1.1))
				l.Compute(copyCost(args[1]))
				return 0
			},
		},
		{
			Name: "recvmsg", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 15}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				if ctx.rng().Bool(0.3) {
					ctx.cover(1)
					l.Crit(pipeLock(ctx, fd.Inode), us(0.8))
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
			Name: "shutdown", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "how", Kind: ArgConst, Domain: 3}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(pipeLock(ctx, fd.Inode), us(0.9))
				return 0
			},
		},
		{
			Name: "getsockopt", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "opt", Kind: ArgConst, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.6))
				return 0
			},
		},
		{
			Name: "setsockopt", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "opt", Kind: ArgConst, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				if args[1]%32 == 7 {
					// SO_RCVBUF-style: resizes buffers.
					ctx.cover(1)
					l.Crit(pipeLock(ctx, fd.Inode), us(1.0))
					pageAlloc(ctx, l, us(0.8), 2)
				} else {
					ctx.cover(4)
					l.Crit(pipeLock(ctx, fd.Inode), us(0.7))
				}
				return 0
			},
		},
		{
			Name: "getsockname", Cats: CatIPC,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.5))
				return 0
			},
		},
		{
			Name: "poll", Cats: CatIPC | CatFileIO,
			Args: []ArgSpec{{Name: "nfds", Kind: ArgConst, Domain: 16}, {Name: "timeout_us", Kind: ArgMicros, Domain: 100}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				nfds := args[0]%16 + 1
				l.Compute(us(0.3 + 0.15*float64(nfds)))
				if args[1] > 0 && ctx.rng().Bool(0.4) {
					ctx.cover(1)
					l.Sleep(us(float64(args[1])))
				} else {
					ctx.cover(2)
				}
				return 0
			},
		},
		{
			Name: "select", Cats: CatIPC | CatFileIO,
			Args: []ArgSpec{{Name: "nfds", Kind: ArgConst, Domain: 64}, {Name: "timeout_us", Kind: ArgMicros, Domain: 100}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				l.Compute(us(0.4 + 0.02*float64(args[0]%64)))
				if args[1] > 0 && ctx.rng().Bool(0.4) {
					ctx.cover(1)
					l.Sleep(us(float64(args[1])))
				} else {
					ctx.cover(2)
				}
				return 0
			},
		},
		{
			Name: "ppoll", Cats: CatIPC | CatFileIO,
			Args: []ArgSpec{{Name: "nfds", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.5 + 0.15*float64(args[0]%16)))
				return 0
			},
		},
		{
			Name: "socketcall_pair_rw", Cats: CatIPC, Weight: 0.5,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 14}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// A combined write+read over a socketpair: stresses the
				// same buffer lock twice with a softirq-like bounce.
				ctx.cover(1)
				pair := ctx.Proc.AddFD(FDSocket)
				l.Crit(pipeLock(ctx, uint64(pair)), us(1.0))
				l.Compute(copyCost(args[0]))
				l.Crit(pipeLock(ctx, uint64(pair)), us(1.0))
				return 0
			},
		},
	}
}
