package kernel

// Reduction is a generated kernel-surface reduction: which syscall numbers
// stay mapped in the specialized kernel's dispatch table, which lock slabs
// are retained, and how far the housekeeping daemons and cache working sets
// shrink. internal/specialize generates one from a workload Profile; the
// kernel only consumes it.
//
// The contract is behavioral soundness: a reduced kernel executes every
// in-profile workload bit-identically to the full kernel (same op streams,
// same return values, same coverage — only latency shifts, which is the
// point). Accordingly a Reduction never removes functionality a mapped
// syscall could still reach:
//
//   - Unmapped syscalls fault at dispatch (the corpus runner returns a named
//     ENOSYS-style error and bumps Stats.UnmappedCalls) instead of executing.
//   - Unretained lock slabs stay functional — a mapped syscall taking a rare
//     branch may still acquire one — but every such acquisition is counted
//     in Stats.OutOfProfileLocks, so escapes from the profiled surface are
//     observable rather than silent.
//   - Housekeeping and cache shrinkage act only on the noise/params side
//     (gap, burst cap, effective managed memory), never on the cache hit
//     probabilities that gate compiled op streams.
type Reduction struct {
	// SyscallMap is a bitmap over syscall numbers: bit n set means syscall
	// n stays mapped. NumSyscalls is the full table size the map covers.
	SyscallMap  []uint64
	NumSyscalls int
	// MappedSyscalls counts the set bits of SyscallMap.
	MappedSyscalls int

	// LockMap is a bitmap over LockID: bit set means the slab is retained.
	LockMap []uint64
	// RetainedLocks counts the set bits of LockMap.
	RetainedLocks int

	// HousekeepingScale in (0, 1] scales the housekeeping daemons kept: the
	// specialized kernel's noise bursts arrive 1/scale as often and cap at
	// scale times the full-surface maximum.
	HousekeepingScale float64
	// MemScale in (0, 1] shrinks the cache working set to the profiled
	// footprint: surface-scaled params are derived from MemGB*MemScale.
	MemScale float64
}

// NewReduction returns an empty reduction (nothing mapped, nothing
// retained) covering a syscall table of the given size.
func NewReduction(numSyscalls int) *Reduction {
	return &Reduction{
		SyscallMap:        make([]uint64, (numSyscalls+63)/64),
		NumSyscalls:       numSyscalls,
		LockMap:           make([]uint64, (int(lockTotalCount)+63)/64),
		HousekeepingScale: 1,
		MemScale:          1,
	}
}

// NumLocks returns the kernel's total lock-slab count (the denominator of
// RetainedLocks).
func NumLocks() int { return int(lockTotalCount) }

// MapSyscall marks syscall number n as mapped. Idempotent.
func (r *Reduction) MapSyscall(n uint16) {
	if int(n) >= r.NumSyscalls {
		return
	}
	w, b := n/64, uint64(1)<<(n%64)
	if r.SyscallMap[w]&b == 0 {
		r.SyscallMap[w] |= b
		r.MappedSyscalls++
	}
}

// SyscallMapped reports whether syscall number n is in the reduced dispatch
// table.
func (r *Reduction) SyscallMapped(n uint16) bool {
	if int(n) >= r.NumSyscalls {
		return false
	}
	return r.SyscallMap[n/64]&(uint64(1)<<(n%64)) != 0
}

// retainLock marks one slab retained. Idempotent.
func (r *Reduction) retainLock(id LockID) {
	w, b := int(id)/64, uint64(1)<<(uint(id)%64)
	if r.LockMap[w]&b == 0 {
		r.LockMap[w] |= b
		r.RetainedLocks++
	}
}

// LockRetained reports whether lock id's slab is retained.
func (r *Reduction) LockRetained(id LockID) bool {
	if id < 0 || id >= lockTotalCount {
		return false
	}
	return r.LockMap[int(id)/64]&(uint64(1)<<(uint(id)%64)) != 0
}

// RetainTraceName retains every lock slab whose TraceLockName matches name
// and returns how many slabs that covered. Named locks retain exactly
// themselves; a sharded family name ("inode[*]") retains the whole family —
// profiles observe shard families, not hash buckets, because shard indices
// depend on per-process salts and core counts the profiling run does not
// share with the target environment.
func (r *Reduction) RetainTraceName(name string) int {
	n := 0
	for id := LockID(0); id < lockTotalCount; id++ {
		if lockTraceNames[id] == name {
			r.retainLock(id)
			n++
		}
	}
	return n
}

// LockTraceNames returns the distinct trace names of every lock slab, in
// slab order (named locks first, then one name per sharded family). This is
// the canonical lock vocabulary profiles are encoded in.
func LockTraceNames() []string {
	var out []string
	seen := map[string]bool{}
	for id := LockID(0); id < lockTotalCount; id++ {
		if n := lockTraceNames[id]; !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
