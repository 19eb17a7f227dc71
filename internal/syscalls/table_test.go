package syscalls

import (
	"reflect"
	"testing"
	"testing/quick"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

func testCtx(t *testing.T) (*Ctx, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{
		Name: "t", Cores: 2, MemGB: 1,
		Params: kernel.Params{Quiet: true},
	}, rng.New(11))
	return &Ctx{Kern: k, Core: 0, Proc: NewProc(eng), Cov: NopCoverage{}}, eng
}

// compileOps compiles one call into a fresh op list.
func compileOps(ctx *Ctx, s *Spec, args []uint64) ([]kernel.Op, uint64) {
	var l kernel.OpList
	ret := s.Compile(ctx, &l, args)
	return l.Ops(), ret
}

func TestTableBasics(t *testing.T) {
	tab := Default()
	if tab.Len() < 100 {
		t.Fatalf("table has %d syscalls, want >= 100", tab.Len())
	}
	seen := map[string]bool{}
	for i, s := range tab.All() {
		if int(s.ID()) != i {
			t.Errorf("%s has id %d at index %d", s.Name, s.ID(), i)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		seen[s.Name] = true
		if s.Cats == 0 {
			t.Errorf("%s has no category", s.Name)
		}
		if s.Weight <= 0 {
			t.Errorf("%s has non-positive weight", s.Name)
		}
	}
}

func TestEveryCategoryPopulated(t *testing.T) {
	for _, cn := range CategoryNames {
		n := 0
		for _, s := range Default().All() {
			if s.Cats.Has(cn.Cat) {
				n++
			}
		}
		if n < 10 {
			t.Errorf("category %s has only %d syscalls, want >= 10", cn.Name, n)
		}
	}
}

func TestLookup(t *testing.T) {
	tab := Default()
	for _, name := range []string{"open", "munmap", "fork", "futex", "setuid", "read"} {
		s := tab.Lookup(name)
		if s == nil {
			t.Fatalf("missing %s", name)
		}
		if tab.Get(s.ID()) != s {
			t.Fatalf("Get(ID) mismatch for %s", name)
		}
	}
	if tab.Lookup("no_such_call") != nil {
		t.Fatal("bogus lookup returned a spec")
	}
}

// Every syscall must compile and execute to completion on a quiet kernel
// for a spread of argument values — this is the sweep that keeps the whole
// table runnable.
func TestEverySyscallCompilesAndRuns(t *testing.T) {
	tab := Default()
	for _, s := range tab.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			ctx, eng := testCtx(t)
			for trial := 0; trial < 20; trial++ {
				args := make([]uint64, len(s.Args))
				for i, a := range s.Args {
					args[i] = (uint64(trial)*2654435761 + uint64(i)*40503) % a.GenDomain()
				}
				ops, _ := compileOps(ctx, s, args)
				completed := false
				ctx.Kern.Submit(0, &kernel.Task{
					Ops:       ops,
					AddrSpace: ctx.Proc.MM,
					OnDone:    func(e sim.Time) { completed = true },
				})
				eng.Run()
				if !completed {
					t.Fatalf("%s trial %d: task did not complete", s.Name, trial)
				}
			}
		})
	}
}

// Property: compilation never emits unbalanced lock ops regardless of args
// (the kernel would panic at task end if it did — this test drives random
// args through every spec).
func TestCompileBalancedProperty(t *testing.T) {
	tab := Default()
	ctx, eng := testCtx(t)
	if err := quick.Check(func(id uint16, a, b, c uint64) bool {
		s := tab.Get(ID(id % uint16(tab.Len())))
		args := []uint64{a, b, c}
		ops, _ := compileOps(ctx, s, args)
		done := false
		ctx.Kern.Submit(0, &kernel.Task{Ops: ops, AddrSpace: ctx.Proc.MM,
			OnDone: func(sim.Time) { done = true }})
		eng.Run()
		return done
	}, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageBlocksAreNamespaced(t *testing.T) {
	type recorder map[uint32]bool
	rec := recorder{}
	ctx, _ := testCtx(t)
	ctx.Cov = coverageFunc(func(b uint32) { rec[b] = true })
	open := Default().Lookup("open")
	read := Default().Lookup("read")
	compileOps(ctx, open, []uint64{1, 0x40})
	compileOps(ctx, read, []uint64{0, 4096})
	sawOpen, sawRead := false, false
	for b := range rec {
		switch ID(b >> 8) {
		case open.ID():
			sawOpen = true
		case read.ID():
			sawRead = true
		default:
			t.Errorf("block %x attributed to neither call", b)
		}
	}
	if !sawOpen || !sawRead {
		t.Fatalf("coverage missing: open=%v read=%v", sawOpen, sawRead)
	}
}

type coverageFunc func(uint32)

func (f coverageFunc) Hit(b uint32) { f(b) }

func TestArgsAreZeroFilled(t *testing.T) {
	ctx, _ := testCtx(t)
	open := Default().Lookup("open")
	// Passing no args must not panic.
	ops, _ := compileOps(ctx, open, nil)
	if len(ops) == 0 {
		t.Fatal("no ops compiled")
	}
}

func TestProcFDLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	p := NewProc(eng)
	if p.NumFDs() != 3 {
		t.Fatalf("fresh proc has %d fds", p.NumFDs())
	}
	idx := p.AddFD(FDFile)
	if idx != 3 {
		t.Fatalf("AddFD returned %d", idx)
	}
	fd, got := p.LookupFD(uint64(idx))
	if got != idx || fd.Kind != FDFile {
		t.Fatalf("LookupFD: %+v at %d", fd, got)
	}
	p.CloseFD(idx)
	fd, _ = p.LookupFD(uint64(idx))
	if fd.Kind != FDNone {
		t.Fatal("CloseFD did not clear slot")
	}
	r := p.AddPipe()
	rfd, _ := p.LookupFD(uint64(r))
	wfd, _ := p.LookupFD(uint64(r + 1))
	if rfd.Kind != FDPipeRead || wfd.Kind != FDPipeWrite || rfd.Pipe != wfd.Pipe {
		t.Fatalf("pipe pair wrong: %+v %+v", rfd, wfd)
	}
}

// Reset returns a used process to NewProc's state in place: the same MM,
// its counters zeroed, and no allocation.
func TestProcResetMatchesNewProc(t *testing.T) {
	ctx, eng := testCtx(t)
	p := ctx.Proc
	mm := p.MM
	tab := Default()
	for _, call := range []struct {
		name string
		args []uint64
	}{{"open", []uint64{5, 0}}, {"pipe2", nil}, {"mmap", []uint64{1 << 16, 0}}, {"setuid", []uint64{42}}} {
		ops, _ := compileOps(ctx, tab.Lookup(call.name), call.args)
		ctx.Kern.Submit(0, &kernel.Task{Ops: ops, AddrSpace: mm})
		eng.Run()
	}
	p.Salt = 99
	if mm.Acquires() == 0 || p.NumFDs() <= 3 || p.UID != 42 || p.VMAs == 0 {
		t.Fatalf("calls left no state to reset: %d mm acquires, %d fds, uid %d, %d vmas", mm.Acquires(), p.NumFDs(), p.UID, p.VMAs)
	}
	if n := testing.AllocsPerRun(10, p.Reset); n != 0 {
		t.Fatalf("Reset allocated %v times", n)
	}
	fresh := NewProc(eng)
	got := *p
	got.MM = fresh.MM
	if p.MM != mm || mm.Acquires() != 0 || !reflect.DeepEqual(got, *fresh) {
		t.Fatalf("reset proc %+v (mm %p, %d acquires), want %+v (mm %p)", *p, p.MM, mm.Acquires(), *fresh, mm)
	}
}

// Resetting a process whose address space is held is a bug, not a reset.
func TestProcResetPanicsWhenMMHeld(t *testing.T) {
	p := NewProc(sim.NewEngine())
	p.MM.RLock(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a process with a held MM did not panic")
		}
	}()
	p.Reset()
}

func TestLookupFDEmptyTable(t *testing.T) {
	p := &Proc{}
	fd, idx := p.LookupFD(7)
	if idx != -1 || fd.Kind != FDNone {
		t.Fatalf("empty table lookup: %+v %d", fd, idx)
	}
}

func TestOpenReturnsUsableFD(t *testing.T) {
	ctx, eng := testCtx(t)
	open := Default().Lookup("open")
	before := ctx.Proc.NumFDs()
	_, ret := compileOps(ctx, open, []uint64{5, 0})
	if int(ret) != before {
		t.Fatalf("open returned fd %d, want %d", ret, before)
	}
	if ctx.Proc.NumFDs() != before+1 {
		t.Fatal("open did not extend fd table")
	}
	_ = eng
}

func TestMunmapShootdownOnlyWhenMapped(t *testing.T) {
	ctx, eng := testCtx(t)
	munmap := Default().Lookup("munmap")
	// Nothing mapped: no IPI.
	ops, _ := compileOps(ctx, munmap, []uint64{4096})
	for _, op := range ops {
		if op.Kind == kernel.OpIPI {
			t.Fatal("munmap of empty mm issued shootdown")
		}
	}
	// Map, then unmap: IPI present.
	mmap := Default().Lookup("mmap")
	compileOps(ctx, mmap, []uint64{4096, 0})
	ops, _ = compileOps(ctx, munmap, []uint64{4096})
	found := false
	for _, op := range ops {
		if op.Kind == kernel.OpIPI {
			found = true
		}
	}
	if !found {
		t.Fatal("munmap of mapped region issued no shootdown")
	}
	_ = eng
}

func TestSetuidFastPathWhenNoChange(t *testing.T) {
	ctx, _ := testCtx(t)
	setuid := Default().Lookup("setuid")
	ops, _ := compileOps(ctx, setuid, []uint64{0}) // uid already 0
	for _, op := range ops {
		if op.Kind == kernel.OpLock && op.Lock == kernel.LockAudit {
			t.Fatal("no-op setuid still audited")
		}
	}
	ops, _ = compileOps(ctx, setuid, []uint64{42})
	audited := false
	for _, op := range ops {
		if op.Kind == kernel.OpLock && op.Lock == kernel.LockAudit {
			audited = true
		}
	}
	if !audited {
		t.Fatal("credential change not audited")
	}
	if ctx.Proc.UID != 42 {
		t.Fatal("setuid did not update proc state")
	}
}

func TestCategoryString(t *testing.T) {
	if got := (CatFS | CatPerm).String(); got != "fs|perm" {
		t.Fatalf("Category string = %q", got)
	}
	if Category(0).String() != "none" {
		t.Fatal("zero category string")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get out of range did not panic")
		}
	}()
	Default().Get(ID(Default().Len()))
}

// Uniprocessor benefit: munmap on a 1-core kernel must be far cheaper than
// on a 64-core kernel under concurrent load — the paper's headline memory
// management observation.
func TestMunmapUniprocessorBenefit(t *testing.T) {
	latency := func(cores int) sim.Time {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.Config{
			Name: "m", Cores: cores, MemGB: 1,
			Params: kernel.Params{Quiet: true},
		}, rng.New(5))
		var worst sim.Time
		for c := 0; c < cores; c++ {
			proc := NewProc(eng)
			ctx := &Ctx{Kern: k, Core: c, Proc: proc, Cov: NopCoverage{}}
			var l kernel.OpList
			Default().Lookup("mmap").Compile(ctx, &l, []uint64{1 << 16, 0})
			Default().Lookup("munmap").Compile(ctx, &l, []uint64{1 << 16})
			k.Submit(c, &kernel.Task{Ops: l.Ops(), AddrSpace: proc.MM,
				OnDone: func(e sim.Time) {
					if e > worst {
						worst = e
					}
				}})
		}
		eng.Run()
		return worst
	}
	uni := latency(1)
	big := latency(32)
	if big < 20*uni {
		t.Fatalf("32-core concurrent munmap (%v) should dwarf uniprocessor (%v)", big, uni)
	}
}

func BenchmarkCompileOpen(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "b", Cores: 1, MemGB: 1, Params: kernel.Params{Quiet: true}}, rng.New(1))
	ctx := &Ctx{Kern: k, Core: 0, Proc: NewProc(eng), Cov: NopCoverage{}}
	open := Default().Lookup("open")
	var l kernel.OpList
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Reset()
		open.Compile(ctx, &l, []uint64{uint64(i % 64), uint64(i % 1024)})
	}
}
