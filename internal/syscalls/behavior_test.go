package syscalls

import (
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// opShape summarizes a compiled sequence for shape assertions.
type opShape struct {
	locks   map[kernel.LockID]int
	ipis    int
	blockIO int
	sleeps  int
}

func shapeOf(ops []kernel.Op) opShape {
	s := opShape{locks: map[kernel.LockID]int{}}
	for _, op := range ops {
		switch op.Kind {
		case kernel.OpLock:
			s.locks[op.Lock]++
		case kernel.OpIPI:
			s.ipis++
		case kernel.OpBlockIO:
			s.blockIO++
		case kernel.OpSleep:
			s.sleeps++
		}
	}
	return s
}

func compileOn(t *testing.T, name string, args ...uint64) opShape {
	t.Helper()
	ctx, _ := testCtx(t)
	ctx.Proc.VMAs = 4
	spec := Default().Lookup(name)
	if spec == nil {
		t.Fatalf("missing %s", name)
	}
	ops, _ := compileOps(ctx, spec, args)
	return shapeOf(ops)
}

func TestRenameTakesGlobalRenameLock(t *testing.T) {
	s := compileOn(t, "rename", 3, 7)
	if s.locks[kernel.LockDcache] == 0 {
		t.Fatal("rename did not take the global rename lock")
	}
	s2 := compileOn(t, "renameat2", 3, 7)
	if s2.locks[kernel.LockDcache] == 0 {
		t.Fatal("renameat2 did not take the global rename lock")
	}
}

func TestMkdirDoesNotTakeGlobalDcache(t *testing.T) {
	// Creates work on the process's own hash shard, not the global lock —
	// the private-by-default fidelity rule.
	s := compileOn(t, "mkdir", 3, 0755)
	if s.locks[kernel.LockDcache] != 0 {
		t.Fatal("mkdir serialized on the global dcache lock")
	}
	found := false
	for id := range s.locks {
		if id >= kernel.LockDcacheBase && id < kernel.LockDcacheBase+kernel.NumDcacheShards {
			found = true
		}
	}
	if !found {
		t.Fatal("mkdir took no dentry shard lock")
	}
}

func TestSetuidTakesAuditAndSleepsRCU(t *testing.T) {
	s := compileOn(t, "setuid", 42)
	if s.locks[kernel.LockAudit] == 0 {
		t.Fatal("credential change not audited")
	}
	if s.locks[kernel.LockCred] == 0 {
		t.Fatal("no cred commit")
	}
	if s.sleeps == 0 {
		t.Fatal("no RCU grace wait")
	}
}

func TestMembarrierBroadcasts(t *testing.T) {
	s := compileOn(t, "membarrier")
	if s.ipis != 1 {
		t.Fatalf("membarrier IPIs = %d", s.ipis)
	}
}

func TestFsyncHitsJournalAndDevice(t *testing.T) {
	// fsync always writes the device; the journal commit branch is
	// probabilistic, so only assert the device write.
	s := compileOn(t, "fsync", 3)
	if s.blockIO == 0 {
		t.Fatal("fsync skipped the device")
	}
}

func TestFutexOpsBranch(t *testing.T) {
	wait := compileOn(t, "futex", 5, 0)
	if wait.sleeps == 0 {
		t.Fatal("FUTEX_WAIT did not sleep")
	}
	wake := compileOn(t, "futex", 5, 1)
	if wake.sleeps != 0 {
		t.Fatal("FUTEX_WAKE slept")
	}
	requeue := compileOn(t, "futex", 5, 3)
	futexLocks := 0
	for id, n := range requeue.locks {
		if id >= kernel.LockFutexBase && id < kernel.LockFutexBase+kernel.NumFutexShards {
			futexLocks += n
		}
	}
	if futexLocks < 2 {
		t.Fatalf("FUTEX_REQUEUE took %d bucket locks, want 2", futexLocks)
	}
}

func TestSaltSeparatesProcesses(t *testing.T) {
	// Two processes using the same path argument should usually land on
	// different dentry shards; the same process must be deterministic.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "t", Cores: 2, MemGB: 1,
		Params: kernel.Params{Quiet: true}}, rng.New(3))
	shardFor := func(salt uint64) kernel.LockID {
		proc := NewProc(eng)
		proc.Salt = salt
		ctx := &Ctx{Kern: k, Core: 0, Proc: proc, Cov: NopCoverage{}}
		return dcacheLock(ctx, 5)
	}
	if shardFor(1) != shardFor(1) {
		t.Fatal("same salt gave different shards")
	}
	distinct := 0
	for s := uint64(1); s <= 16; s++ {
		if shardFor(s) != shardFor(s+16) {
			distinct++
		}
	}
	if distinct < 12 {
		t.Fatalf("only %d/16 salt pairs separated shards", distinct)
	}
}

func TestSocketLifecycle(t *testing.T) {
	ctx, eng := testCtx(t)
	tab := Default()
	// socket -> bind -> listen -> accept4 runs as one sequence against the
	// process state, with the socket fd threading through.
	sock := tab.Lookup("socket")
	ops, fd := compileOps(ctx, sock, []uint64{1, 1})
	run := func(ops []kernel.Op) {
		ctx.Kern.Submit(0, &kernel.Task{Ops: ops, AddrSpace: ctx.Proc.MM})
		eng.Run()
	}
	run(ops)
	got, _ := ctx.Proc.LookupFD(fd)
	if got.Kind != FDSocket {
		t.Fatalf("socket fd kind %v", got.Kind)
	}
	for _, step := range []struct {
		name string
		args []uint64
	}{
		{"bind", []uint64{fd, 80}},
		{"listen", []uint64{fd, 16}},
		{"accept4", []uint64{fd}},
		{"sendmsg", []uint64{fd, 2048}},
		{"recvmsg", []uint64{fd, 2048}},
		{"shutdown", []uint64{fd, 2}},
	} {
		ops, _ := compileOps(ctx, tab.Lookup(step.name), step.args)
		if len(ops) == 0 {
			t.Fatalf("%s compiled empty", step.name)
		}
		run(ops)
	}
}

func TestVmaWalkLogarithmic(t *testing.T) {
	small := vmaWalk(4)
	big := vmaWalk(4096)
	if big <= small {
		t.Fatal("vma walk not increasing")
	}
	if big > 4*small {
		t.Fatalf("vma walk not logarithmic: %v vs %v", small, big)
	}
}

func TestNewFamiliesCategorized(t *testing.T) {
	tab := Default()
	cases := map[string]Category{
		"socket":        CatIPC,
		"poll":          CatIPC,
		"statx":         CatFS,
		"setxattr":      CatPerm,
		"getrandom":     CatPerm,
		"clock_gettime": CatProc,
		"sysinfo":       CatMem,
	}
	for name, cat := range cases {
		s := tab.Lookup(name)
		if s == nil {
			t.Errorf("missing %s", name)
			continue
		}
		if !s.Cats.Has(cat) {
			t.Errorf("%s lacks category %v", name, cat)
		}
	}
}
