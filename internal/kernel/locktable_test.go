package kernel

import (
	"slices"
	"testing"
	"unsafe"

	"ksa/internal/rng"
	"ksa/internal/sim"
)

// touchedPages lists the lock-table pages k has created.
func touchedPages(k *Kernel) []int {
	var pages []int
	for p, pg := range k.locks {
		if pg != nil {
			pages = append(pages, p)
		}
	}
	return pages
}

// A one-core tenant kernel pays for its cores and noise streams, not for
// the 525 locks it has not touched yet.
func TestNewOneCoreKernelIsSmall(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(1)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(eng, Config{Name: "tenant", Cores: 1, MemGB: 1}, src)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 4<<10 {
		t.Fatalf("one-core New allocates %d B, want at most 4 KiB", got)
	}
	if got := unsafe.Sizeof(lockPage{}); got > lockPageSize*88 {
		t.Fatalf("lock page is %d B, want at most %d (88 B a lock)", got, lockPageSize*88)
	}
}

func TestLockPagesCreatedOnFirstAcquire(t *testing.T) {
	eng := sim.NewEngine()
	k := quietKernel(eng, 2)
	if got := touchedPages(k); len(got) != 0 {
		t.Fatalf("new kernel has pages %v, want none", got)
	}
	inode := LockInodeBase + 5
	var l OpList
	l.Lock(LockTasklist).Crit(LockRunqueue, sim.Microsecond).Crit(inode, sim.Microsecond).Unlock(LockTasklist)
	runOne(t, k, eng, 0, l.Ops())
	want := []int{int(LockTasklist) / lockPageSize, int(inode) / lockPageSize}
	if got := touchedPages(k); !slices.Equal(got, want) {
		t.Fatalf("pages %v, want %v (tasklist and runqueue[0] share page 0)", got, want)
	}
	for _, id := range []LockID{LockTasklist, LockRunqueue, inode} {
		if got := k.LockStats(id).Acquires; got != 1 {
			t.Fatalf("lock %d: %d acquires, want 1", id, got)
		}
	}
}

// Reading counters never creates a page: an untouched lock reads as a
// zero lock, and the report keeps its zero rows.
func TestLockReadsCreateNoPage(t *testing.T) {
	eng := sim.NewEngine()
	k := quietKernel(eng, 1)
	var l OpList
	l.Crit(LockAudit, sim.Microsecond)
	runOne(t, k, eng, 0, l.Ops())
	before := touchedPages(k)

	rep := k.Contention()
	for id := LockID(0); id < lockTotalCount; id++ {
		want := uint64(0)
		if id == LockAudit {
			want = 1
		}
		if got := k.LockStats(id).Acquires; got != want {
			t.Fatalf("lock %d: %d acquires, want %d", id, got, want)
		}
	}
	if got := touchedPages(k); !slices.Equal(got, before) {
		t.Fatalf("reads created pages: %v, was %v", got, before)
	}
	if want := len(lockNames) + len(shardFamilies); len(rep.Locks) != want {
		t.Fatalf("report has %d rows, want %d", len(rep.Locks), want)
	}
	for _, s := range rep.Locks {
		want := LockStats{Name: s.Name}
		if s.Name == "audit" {
			want.Acquires = 1
		}
		if s != want {
			t.Fatalf("row %+v, want %+v", s, want)
		}
	}
}

// Every call and request compiles into an op list, so an Op stays 16 bytes.
func TestOpIsSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 16 {
		t.Fatalf("Op is %d B, want 16", got)
	}
}

// A resubmitted task takes its locks, and its address-space semaphore,
// without allocating: the grant continuations are built once per task,
// like cont.
func TestLockAcquireAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	k := quietKernel(eng, 1)
	var l OpList
	l.Crit(LockDcache, sim.Microsecond).Lock(LockInodeBase+3).Crit(LockRunqueue, sim.Microsecond).Unlock(LockInodeBase + 3)
	l.MMapRead(sim.Microsecond).MMapWrite(sim.Microsecond)
	task := &Task{Ops: l.Ops()}
	run := func() {
		k.Submit(0, task)
		eng.Run()
	}
	run() // creates the pages, the continuations and the task's lock stack
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("%v allocs per task, want 0", got)
	}
	// Our warm-up, AllocsPerRun's own warm-up, then its 100 runs.
	if got := k.LockStats(LockDcache).Acquires; got != 102 {
		t.Fatalf("dcache acquired %d times, want 102", got)
	}
	if got := task.AddrSpace.Acquires(); got != 204 {
		t.Fatalf("address space acquired %d times, want 204", got)
	}
}
