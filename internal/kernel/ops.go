package kernel

import (
	"fmt"

	"ksa/internal/sim"
)

// LockID names one of the kernel's shared lock instances. Sharded locks
// (inode mutexes, futex hash buckets, pipe locks) are addressed as
// base ID + shard. It is 32 bits wide so that an Op fits in 16 bytes.
type LockID int32

// The kernel's shared locks. The inventory mirrors the Linux structures
// whose contention the paper's six syscall categories exercise.
const (
	// Process management / scheduling.
	LockTasklist    LockID = iota // global tasklist_lock (fork/exit/wait walks)
	LockPIDMap                    // pid bitmap allocator
	LockLoadBalance               // cross-runqueue balancing
	// Memory management.
	LockZone // zone->lock, the page allocator freelists
	LockLRU  // lru_lock, page reclaim/activation
	// VFS / filesystem management.
	LockDcache  // dcache_lock / rename_lock: path lookup and mutation
	LockJournal // journal commit lock
	LockMount   // mount table
	// File I/O.
	LockBlockQueue // legacy id: the block device is now a Semaphore (see Kernel.BlockDevice)
	// IPC.
	LockIPC // SysV msgq/sem global
	// Permissions / capabilities.
	LockAudit // audit log serialization
	LockCred  // credential commit
	// Containers.
	LockCgroup // cgroup hierarchy / memcg accounting

	// Sharded lock families; the shard index is added to the base.
	lockShardedBase
	LockRunqueue   = lockShardedBase    // + core index
	LockInodeBase  = LockRunqueue + 256 // + inode hash shard (64)
	LockFutexBase  = LockInodeBase + 64 // + futex hash shard (64)
	LockPipeBase   = LockFutexBase + 64 // + pipe hash shard (64)
	LockDcacheBase = LockPipeBase + 64  // + dentry hash shard (64)
	lockTotalCount = LockDcacheBase + 64
)

// Shard counts for the hashed lock families. Hashes include a per-process
// salt, so two processes touching "the same" path argument usually land on
// different shards — mirroring how per-process working directories keep
// most VFS objects private in the paper's deployment.
const (
	NumInodeShards  = 64
	NumFutexShards  = 64
	NumPipeShards   = 64
	NumDcacheShards = 64
)

// OpKind discriminates micro-operations.
type OpKind uint8

// Micro-op kinds. Syscall handlers compile to sequences of these.
const (
	// OpCompute runs on-CPU kernel work for Dur; it is subject to timer
	// ticks and housekeeping preemption (the "steal" model).
	OpCompute OpKind = iota
	// OpLock acquires the exclusive lock Lock (FIFO); the critical section
	// extends until the matching OpUnlock.
	OpLock
	// OpUnlock releases the most recent matching OpLock.
	OpUnlock
	// OpRLock / OpRUnlock and OpWLock / OpWUnlock are the reader/writer
	// forms, used for mmap_sem-like semaphores. Reader/writer locks are
	// per-process (address-space) resources supplied by the task.
	OpRLock
	OpRUnlock
	OpWLock
	OpWUnlock
	// OpIPI broadcasts an IPI (e.g. TLB shootdown) to the kernel's other
	// cores and waits for acknowledgement. Cost scales with target count
	// and concurrent broadcasters serialize on the IPI bus.
	OpIPI
	// OpBlockIO submits one request to the block device queue and sleeps
	// until service completes. Not subject to CPU steal (the core is off
	// the critical path while the device works).
	OpBlockIO
	// OpSleep blocks off-CPU for Dur, rounded up to timer granularity.
	OpSleep
)

// Op is one micro-operation. Syscalls compile into lists of them, so the
// fields are ordered and sized to pack an Op into 16 bytes.
type Op struct {
	// Dur is on-CPU work (OpCompute), device service override (OpBlockIO,
	// zero = draw from the device model), or sleep length (OpSleep).
	Dur sim.Time
	// Lock is the target lock for OpLock/OpUnlock.
	Lock LockID
	// Exits is the number of VM exits this op triggers under virtualization
	// (ignored for native kernels).
	Exits int16
	Kind  OpKind
	// User marks user-space compute: it is not subject to the guest
	// kernel's compute dilation (EPT pressure hits kernel paths, which walk
	// page tables and touch many mappings, far harder than steady-state
	// user code).
	User bool
}

func (o Op) String() string {
	switch o.Kind {
	case OpCompute:
		return fmt.Sprintf("compute(%v)", o.Dur)
	case OpLock:
		return fmt.Sprintf("lock(%d)", o.Lock)
	case OpUnlock:
		return fmt.Sprintf("unlock(%d)", o.Lock)
	case OpRLock:
		return "rlock"
	case OpRUnlock:
		return "runlock"
	case OpWLock:
		return "wlock"
	case OpWUnlock:
		return "wunlock"
	case OpIPI:
		return "ipi"
	case OpBlockIO:
		return fmt.Sprintf("blockio(%v)", o.Dur)
	case OpSleep:
		return fmt.Sprintf("sleep(%v)", o.Dur)
	default:
		return fmt.Sprintf("op(%d)", o.Kind)
	}
}

// OpList builds micro-op sequences fluently. Syscall compilers append to a
// list their caller owns; a caller that reuses one list across calls (the
// corpus runner does) Resets it between them and so appends into storage
// it has already grown.
type OpList struct {
	ops []Op
}

// Reset empties the list, keeping its storage. Ops returned before the
// reset share that storage, so they are overwritten by later appends.
func (l *OpList) Reset() { l.ops = l.ops[:0] }

// exitCount narrows a per-op VM exit count to Op.Exits.
func exitCount(n int) int16 {
	if n != int(int16(n)) {
		panic(fmt.Sprintf("kernel: %d VM exits in one op", n))
	}
	return int16(n)
}

// Grow makes room for n more ops, so the next n appends do not reallocate.
func (l *OpList) Grow(n int) {
	if cap(l.ops)-len(l.ops) < n {
		l.ops = append(make([]Op, 0, len(l.ops)+n), l.ops...)
	}
}

// Ops returns the accumulated sequence. It is valid until the next Reset.
func (l *OpList) Ops() []Op { return l.ops }

// Compute appends on-CPU work.
func (l *OpList) Compute(d sim.Time) *OpList {
	l.ops = append(l.ops, Op{Kind: OpCompute, Dur: d})
	return l
}

// ComputeExits appends on-CPU work that triggers n VM exits when the kernel
// is virtualized.
func (l *OpList) ComputeExits(d sim.Time, n int) *OpList {
	l.ops = append(l.ops, Op{Kind: OpCompute, Dur: d, Exits: exitCount(n)})
	return l
}

// Crit appends lock(id); compute(d); unlock(id) — the common critical
// section shape.
func (l *OpList) Crit(id LockID, d sim.Time) *OpList {
	l.ops = append(l.ops,
		Op{Kind: OpLock, Lock: id},
		Op{Kind: OpCompute, Dur: d},
		Op{Kind: OpUnlock, Lock: id})
	return l
}

// Lock appends an acquire of id.
func (l *OpList) Lock(id LockID) *OpList {
	l.ops = append(l.ops, Op{Kind: OpLock, Lock: id})
	return l
}

// Unlock appends a release of id.
func (l *OpList) Unlock(id LockID) *OpList {
	l.ops = append(l.ops, Op{Kind: OpUnlock, Lock: id})
	return l
}

// MMapRead appends rlock; compute(d); runlock on the task's address-space
// semaphore.
func (l *OpList) MMapRead(d sim.Time) *OpList {
	l.ops = append(l.ops,
		Op{Kind: OpRLock},
		Op{Kind: OpCompute, Dur: d},
		Op{Kind: OpRUnlock})
	return l
}

// MMapWrite appends wlock; compute(d); wunlock on the task's address-space
// semaphore.
func (l *OpList) MMapWrite(d sim.Time) *OpList {
	l.ops = append(l.ops,
		Op{Kind: OpWLock},
		Op{Kind: OpCompute, Dur: d},
		Op{Kind: OpWUnlock})
	return l
}

// IPI appends a TLB-shootdown-style broadcast. Under virtualization each
// remote vCPU kick is a VM exit.
func (l *OpList) IPI() *OpList {
	l.ops = append(l.ops, Op{Kind: OpIPI, Exits: 1})
	return l
}

// BlockIO appends a block device round trip; d zero draws service time from
// the device model. Virtio relays add exits under virtualization.
func (l *OpList) BlockIO(d sim.Time) *OpList {
	l.ops = append(l.ops, Op{Kind: OpBlockIO, Dur: d, Exits: 2})
	return l
}

// Sleep appends an off-CPU wait.
func (l *OpList) Sleep(d sim.Time) *OpList {
	l.ops = append(l.ops, Op{Kind: OpSleep, Dur: d})
	return l
}

// UserCompute appends user-space work that triggers n VM exits under
// virtualization but is not subject to kernel compute dilation.
func (l *OpList) UserCompute(d sim.Time, exits int) *OpList {
	l.ops = append(l.ops, Op{Kind: OpCompute, Dur: d, Exits: exitCount(exits), User: true})
	return l
}
