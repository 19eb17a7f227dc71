package syscalls

import (
	"ksa/internal/kernel"
)

// permSpecs returns the permission / capabilities syscalls (Figure 2(f)).
// Credential mutations pay two costs that give this category its shape:
// serialized audit-record emission (contention ∝ cores sharing the kernel)
// and an RCU-grace-period wait (a ~1 tick floor even on 1-core guests) —
// together they move the whole latency mass from ~10ms on a 64-core kernel
// to just over 1ms on uniprocessor guests, as the paper reports.
func permSpecs() []*Spec {
	getterSpec := func(name string, cost float64) *Spec {
		return &Spec{
			Name: name, Cats: CatPerm,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(cost))
				return 0
			},
		}
	}
	setuidLike := func(name string, auditHold float64) *Spec {
		return &Spec{
			Name: name, Cats: CatPerm,
			Args: []ArgSpec{{Name: "id", Kind: ArgUID, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0] == ctx.Proc.UID {
					// No credential change: cheap path, no audit.
					ctx.cover(1)
					l.Compute(us(0.8))
					return 0
				}
				ctx.cover(2)
				auditRecord(ctx, l, us(auditHold), 3)
				credCommit(ctx, l, 4)
				ctx.Proc.UID = args[0]
				return 0
			},
		}
	}
	return []*Spec{
		withWeight(getterSpec("getuid", 0.25), 1.8),
		withWeight(getterSpec("geteuid", 0.25), 1.5),
		getterSpec("getgid", 0.25),
		getterSpec("getegid", 0.25),
		withWeight(setuidLike("setuid", 26), 0.5),
		withWeight(setuidLike("setgid", 23), 0.5),
		withWeight(setuidLike("setresuid", 28), 0.5),
		withWeight(setuidLike("setreuid", 27), 0.5),
		{
			Name: "capget", Cats: CatPerm,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.7))
				return 0
			},
		},
		{
			Name: "capset", Cats: CatPerm,
			Args: []ArgSpec{{Name: "caps", Kind: ArgFlags, Domain: 1 << 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0] == ctx.Proc.Caps {
					ctx.cover(1)
					l.Compute(us(0.9))
					return 0
				}
				ctx.cover(2)
				auditRecord(ctx, l, us(20), 3)
				credCommit(ctx, l, 4)
				ctx.Proc.Caps = args[0]
				return 0
			},
		},
		{
			Name: "prctl", Cats: CatPerm | CatProc,
			Args: []ArgSpec{{Name: "op", Kind: ArgConst, Domain: 16}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0]%16 == 9 {
					// PR_SET_SECCOMP-style: credential-affecting.
					ctx.cover(1)
					auditRecord(ctx, l, us(12), 2)
					l.Crit(kernel.LockCred, us(1.5))
				} else {
					ctx.cover(3)
					l.Compute(us(1))
				}
				return 0
			},
		},
		{
			Name: "umask", Cats: CatPerm,
			Args: []ArgSpec{{Name: "mask", Kind: ArgMode, Domain: 1 << 9}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.3))
				ctx.Proc.Umask = args[0]
				return 0
			},
		},
		{
			Name: "getgroups", Cats: CatPerm,
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(0.5))
				return 0
			},
		},
		{
			Name: "setgroups", Cats: CatPerm, Weight: 0.8,
			Args: []ArgSpec{{Name: "n", Kind: ArgConst, Domain: 32}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(0.8), 4) // group_info alloc
				auditRecord(ctx, l, us(16), 2)
				credCommit(ctx, l, 3)
				return 0
			},
		},
		{
			Name: "seccomp", Cats: CatPerm, Weight: 0.7,
			Args: []ArgSpec{{Name: "flags", Kind: ArgFlags, Domain: 4}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				l.Compute(us(2.5)) // filter validation
				l.Crit(kernel.LockCred, us(1.8))
				auditRecord(ctx, l, us(13), 2)
				return 0
			},
		},
		{
			Name: "add_key", Cats: CatPerm, Weight: 0.7,
			Args: []ArgSpec{{Name: "len", Kind: ArgSize, Domain: 1 << 12}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				pageAlloc(ctx, l, us(1), 3)
				l.Crit(kernel.LockCred, us(2.4))
				auditRecord(ctx, l, us(14), 2)
				l.Compute(copyCost(args[0]))
				return 0
			},
		},
		{
			Name: "keyctl", Cats: CatPerm, Weight: 0.7,
			Args: []ArgSpec{{Name: "op", Kind: ArgConst, Domain: 8}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				if args[0]%8 < 2 {
					ctx.cover(1)
					l.Crit(kernel.LockCred, us(2))
					auditRecord(ctx, l, us(13), 2)
				} else {
					ctx.cover(3)
					l.Crit(kernel.LockCred, us(1.2))
				}
				return 0
			},
		},
		{
			Name: "setfsuid", Cats: CatPerm,
			Args: []ArgSpec{{Name: "uid", Kind: ArgUID, Domain: 1 << 10}},
			compile: func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
				ctx.cover(1)
				auditRecord(ctx, l, us(10), 2)
				l.Crit(kernel.LockCred, us(1.2))
				return 0
			},
		},
	}
}
