package syscalls

import (
	"ksa/internal/kernel"
)

// fileIOSpecs returns the file-I/O syscalls (Figure 2(c)). Cached reads and
// writes are cheap compute; misses and syncs go to the block device, which
// is the one resource VM partitioning does not isolate (virtio relays into
// a shared host queue) — the paper accordingly finds no clear surface-area
// trend for this category.
func fileIOSpecs() []*Spec {
	readLike := func(offsetExtra float64) CompileFunc {
		return func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
			readOps(ctx, l, args[0], args[1], offsetExtra)
			return 0
		}
	}
	writeLike := func(offsetExtra float64) CompileFunc {
		return func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
			writeOps(ctx, l, args[0], args[1], offsetExtra)
			return 0
		}
	}

	return []*Spec{
		{
			Name: "read", Cats: CatFileIO, Weight: 2.6,
			Args:    []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 17}},
			compile: readLike(0),
		},
		{
			Name: "write", Cats: CatFileIO, Weight: 2.6,
			Args:    []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 17}},
			compile: writeLike(0),
		},
		{
			Name: "pread64", Cats: CatFileIO,
			Args:    []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 17}},
			compile: readLike(0.15),
		},
		{
			Name: "pwrite64", Cats: CatFileIO,
			Args:    []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 17}},
			compile: writeLike(0.15),
		},
		{
			Name: "readv", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "iovs", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				iovs := args[1]%8 + 1
				l.Compute(us(0.1 * float64(iovs)))
				readOps(ctx, l, args[0], iovs*4096, 0.1)
				return 0
			},
		},
		{
			Name: "writev", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "iovs", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				iovs := args[1]%8 + 1
				l.Compute(us(0.1 * float64(iovs)))
				writeOps(ctx, l, args[0], iovs*4096, 0.1)
				return 0
			},
		},
		{
			Name: "lseek", Cats: CatFileIO, Weight: 1.8,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "off", Kind: ArgSize, Domain: 1 << 20}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.3))
				return 0
			},
		},
		{
			Name: "fsync", Cats: CatFileIO | CatFS, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(inodeLock(ctx, fd.Inode), us(1.8))
				journalTxn(ctx, l, us(7), 2)
				l.BlockIO(0)
				return 0
			},
		},
		{
			Name: "fdatasync", Cats: CatFileIO, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				journalTxn(ctx, l, us(4.5), 2)
				l.BlockIO(0)
				return 0
			},
		},
		{
			Name: "fallocate", Cats: CatFileIO | CatFS, Weight: 0.7,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(inodeLock(ctx, fd.Inode), us(2))
				pageAlloc(ctx, l, us(1.5), 5)
				journalTxn(ctx, l, us(5), 2)
				return 0
			},
		},
		{
			Name: "ftruncate", Cats: CatFileIO | CatFS,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "len", Kind: ArgSize, Domain: 1 << 22}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(inodeLock(ctx, fd.Inode), us(2.2))
				lruTouch(ctx, l, us(1.6), 5) // drop truncated pages
				journalTxn(ctx, l, us(4), 2)
				return 0
			},
		},
		{
			Name: "sendfile", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "outfd", Kind: ArgFD}, {Name: "infd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 18}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				l.Compute(us(0.8))
				if ctx.Kern.PageCacheHit(ctx.Core) {
					ctx.cover(1)
					l.Compute(pageWork(args[2], 0.05))
				} else {
					ctx.cover(2)
					l.BlockIO(0)
					l.Compute(pageWork(args[2], 0.05))
				}
				return 0
			},
		},
		{
			Name: "splice", Cats: CatFileIO | CatIPC,
			Args: []ArgSpec{{Name: "fdin", Kind: ArgFD}, {Name: "fdout", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fdin, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(pipeLock(ctx, fdin.Pipe), us(1.1))
				l.Compute(pageWork(args[2], 0.03))
				return 0
			},
		},
		{
			Name: "tee", Cats: CatFileIO | CatIPC, Weight: 0.6,
			Args: []ArgSpec{{Name: "fdin", Kind: ArgFD}, {Name: "fdout", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fdin, _ := ctx.Proc.LookupFD(args[0])
				fdout, _ := ctx.Proc.LookupFD(args[1])
				ctx.cover(1)
				l.Crit(pipeLock(ctx, fdin.Pipe), us(0.9))
				l.Crit(pipeLock(ctx, fdout.Pipe+1), us(0.9))
				return 0
			},
		},
		{
			Name: "dup", Cats: CatFileIO, Returns: ResFD,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Compute(us(0.45))
				idx := ctx.Proc.AddFD(fd.Kind)
				return uint64(idx)
			},
		},
		{
			Name: "fcntl", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "cmd", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[1]%16 == 7 {
					// F_SETLK: file lock table.
					ctx.cover(1)
					fd, _ := ctx.Proc.LookupFD(args[0])
					l.Crit(inodeLock(ctx, fd.Inode), us(1.6))
				} else {
					ctx.cover(2)
					l.Compute(us(0.5))
				}
				return 0
			},
		},
		{
			Name: "ioctl", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "req", Kind: ArgConst, Domain: 64}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				// Device ioctls trap under virtualization.
				l.ComputeExits(us(0.9), 1)
				return 0
			},
		},
		{
			Name: "copy_file_range", Cats: CatFileIO, Weight: 0.7,
			Args: []ArgSpec{{Name: "fdin", Kind: ArgFD}, {Name: "fdout", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 18}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if ctx.Kern.PageCacheHit(ctx.Core) {
					ctx.cover(1)
					l.Compute(pageWork(args[2], 0.06))
				} else {
					ctx.cover(2)
					l.BlockIO(0)
					l.Compute(pageWork(args[2], 0.06))
				}
				return 0
			},
		},
		{
			Name: "readahead", Cats: CatFileIO, Weight: 0.6,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "count", Kind: ArgSize, Domain: 1 << 19}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(1))
				if !ctx.Kern.PageCacheHit(ctx.Core) {
					ctx.cover(2)
					l.BlockIO(0)
				}
				return 0
			},
		},
		{
			Name: "close", Cats: CatFileIO, Weight: 2.0,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				_, idx := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Compute(us(0.4))
				if idx > 2 { // keep std descriptors
					ctx.cover(2)
					ctx.Proc.CloseFD(idx)
					if ctx.rng().Bool(0.05) {
						// Last reference to a dirty file: deferred flush.
						ctx.cover(3)
						lruTouch(ctx, l, us(1.2), 5)
					}
				}
				return 0
			},
		},
		{
			Name: "flock", Cats: CatFileIO,
			Args: []ArgSpec{{Name: "fd", Kind: ArgFD}, {Name: "op", Kind: ArgConst, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				fd, _ := ctx.Proc.LookupFD(args[0])
				ctx.cover(1)
				l.Crit(inodeLock(ctx, fd.Inode), us(1.3))
				return 0
			},
		},
	}
}

// readOps compiles a read/pread-style call; offsetExtra adds the pread
// bookkeeping cost.
func readOps(ctx *Ctx, l *kernel.OpList, fdArg, size uint64, offsetExtra float64) {
	fd, _ := ctx.Proc.LookupFD(fdArg)
	l.Compute(us(0.35 + offsetExtra))
	switch fd.Kind {
	case FDPipeRead, FDPipeWrite:
		ctx.cover(1)
		l.Crit(pipeLock(ctx, fd.Pipe), us(0.8))
		l.Compute(copyCost(size % (1 << 16)))
	case FDEventFD:
		ctx.cover(2)
		l.Compute(us(0.5))
	default:
		if ctx.Kern.PageCacheHit(ctx.Core) {
			ctx.cover(3)
			l.Compute(copyCost(size))
		} else {
			ctx.cover(4)
			l.BlockIO(0)
			lruTouch(ctx, l, us(0.8), 5) // insert new page
			l.Compute(copyCost(size))
		}
	}
}

// writeOps compiles a write/pwrite-style call; offsetExtra adds the pwrite
// bookkeeping cost.
func writeOps(ctx *Ctx, l *kernel.OpList, fdArg, size uint64, offsetExtra float64) {
	fd, _ := ctx.Proc.LookupFD(fdArg)
	l.Compute(us(0.4 + offsetExtra))
	switch fd.Kind {
	case FDPipeRead, FDPipeWrite:
		ctx.cover(1)
		l.Crit(pipeLock(ctx, fd.Pipe), us(0.9))
		l.Compute(copyCost(size % (1 << 16)))
	default:
		ctx.cover(2)
		l.Compute(copyCost(size))
		if ctx.rng().Bool(0.12) {
			// Dirty-page balance: occasional LRU work.
			ctx.cover(3)
			lruTouch(ctx, l, us(1.4), 5)
		}
		if ctx.rng().Bool(0.03) {
			// Writeback threshold hit: synchronous flush.
			ctx.cover(4)
			l.BlockIO(0)
		}
	}
}
