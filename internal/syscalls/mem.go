package syscalls

import (
	"ksa/internal/kernel"
)

// memSpecs returns the memory-management syscalls (Figure 2(b)). The
// category's defining cost is the TLB shootdown: unmap-style operations
// broadcast IPIs to every other core the kernel manages, which is why the
// paper sees a drastic latency drop in 1-core ("uniprocessor") guests.
func memSpecs() []*Spec {
	return []*Spec{
		{
			Name: "mmap", Cats: CatMem, Returns: ResNone, Weight: 3.0,
			Args: []ArgSpec{
				{Name: "len", Kind: ArgSize, Domain: 1 << 22},
				{Name: "flags", Kind: ArgFlags, Domain: 1 << 6},
			},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(1.6))
				pageAlloc(ctx, l, us(1.2), 3)
				const mapPopulate = 0x20
				if args[1]&mapPopulate != 0 {
					ctx.cover(2)
					pageAlloc(ctx, l, pageWork(args[0], 0.35), 5)
				}
				ctx.Proc.VMAs++
				return 0
			},
		},
		{
			Name: "munmap", Cats: CatMem, Weight: 1.6,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Proc.VMAs == 0 {
					ctx.cover(1)
					l.Compute(us(0.5)) // EINVAL: nothing mapped
					return 0
				}
				ctx.cover(2)
				l.MMapWrite(us(2.5))
				// Invalidate remote TLBs, then free the pages.
				l.IPI()
				pageAlloc(ctx, l, us(1.8), 4)
				if args[0] > 1<<20 {
					lruTouch(ctx, l, us(2.2), 6) // large region: LRU cleanup
				}
				ctx.Proc.VMAs--
				return 0
			},
		},
		{
			Name: "mprotect", Cats: CatMem,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 20}, {Name: "prot", Kind: ArgFlags, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(2) + vmaWalk(ctx.Proc.VMAs))
				if args[1]&0x2 == 0 {
					// Dropping write permission must flush remote TLBs.
					ctx.cover(2)
					l.IPI()
				}
				return 0
			},
		},
		{
			Name: "mremap", Cats: CatMem, Weight: 0.7,
			Args: []ArgSpec{{Name: "newlen", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Proc.VMAs == 0 {
					ctx.cover(1)
					l.Compute(us(0.5))
					return 0
				}
				ctx.cover(2)
				l.MMapWrite(us(3))
				l.IPI()
				pageAlloc(ctx, l, us(2), 4)
				return 0
			},
		},
		{
			Name: "brk", Cats: CatMem, Weight: 1.6,
			Args: []ArgSpec{{Name: "delta", Kind: ArgSize, Domain: 1 << 20}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(1.2))
				if args[0] > ctx.Proc.Brk {
					pageAlloc(ctx, l, us(0.9), 3)
					ctx.Proc.Brk = args[0]
				}
				return 0
			},
		},
		{
			Name: "madvise", Cats: CatMem,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 22}, {Name: "advice", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				const madvDontneed = 4
				if args[1] == madvDontneed && ctx.Proc.VMAs > 0 {
					// Zaps page tables: shootdown plus page free.
					ctx.cover(1)
					l.MMapRead(us(1.5))
					l.IPI()
					lruTouch(ctx, l, us(1.5), 4)
					pageAlloc(ctx, l, us(1.2), 6)
				} else {
					ctx.cover(2)
					l.MMapRead(us(1))
				}
				return 0
			},
		},
		{
			Name: "mlock", Cats: CatMem,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 20}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(2))
				lruTouch(ctx, l, pageWork(args[0], 0.15), 3)
				return 0
			},
		},
		{
			Name: "munlock", Cats: CatMem,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 20}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(1.8))
				lruTouch(ctx, l, us(1.5), 3)
				return 0
			},
		},
		{
			Name: "msync", Cats: CatMem | CatFileIO, Weight: 0.6,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapRead(us(1.5))
				if ctx.rng().Bool(0.2) {
					ctx.cover(2)
					l.BlockIO(0) // dirty pages written back synchronously
				}
				return 0
			},
		},
		{
			Name: "mincore", Cats: CatMem,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapRead(us(1))
				l.Compute(pageWork(args[0], 0.02))
				return 0
			},
		},
		{
			Name: "membarrier", Cats: CatMem | CatProc, Weight: 0.6,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				// Expedited membarrier IPIs every core running the mm.
				ctx.cover(1)
				l.Compute(us(0.8))
				l.IPI()
				return 0
			},
		},
		{
			Name: "get_mempolicy", Cats: CatMem,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapRead(us(0.9))
				return 0
			},
		},
		{
			Name: "memfd_create", Cats: CatMem | CatFileIO, Returns: ResFD,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(1.4), 3)
				l.Compute(us(0.8))
				fd := ctx.Proc.AddFD(FDMemFD)
				return uint64(fd)
			},
		},
		{
			Name: "mlockall", Cats: CatMem, Weight: 0.4,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(3))
				lruTouch(ctx, l, us(2)+8*vmaWalk(ctx.Proc.VMAs), 3)
				return 0
			},
		},
		{
			Name: "munlockall", Cats: CatMem, Weight: 0.4,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.MMapWrite(us(2.5))
				lruTouch(ctx, l, us(2), 3)
				return 0
			},
		},
	}
}
