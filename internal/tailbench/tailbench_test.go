package tailbench

import (
	"testing"

	"ksa/internal/corpus"
	"ksa/internal/fuzz"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

func TestAppsTableMatchesPaper(t *testing.T) {
	apps := Apps()
	want := []string{"xapian", "masstree", "moses", "sphinx", "img-dnn", "specjbb", "silo", "shore"}
	if len(apps) != len(want) {
		t.Fatalf("%d apps, want %d", len(apps), len(want))
	}
	for i, a := range apps {
		if a.Name != want[i] {
			t.Errorf("app[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Desc == "" || a.ServiceMean <= 0 || a.SyscallsPerReq <= 0 || len(a.Mix) == 0 {
			t.Errorf("%s: incomplete profile", a.Name)
		}
	}
	if AppByName("xapian") == nil || AppByName("nope") != nil {
		t.Error("AppByName lookups wrong")
	}
}

func TestMixSyscallsExist(t *testing.T) {
	tab := syscalls.Default()
	for _, a := range Apps() {
		for _, m := range a.Mix {
			if tab.Lookup(m.Syscall) == nil {
				t.Errorf("%s mixes unknown syscall %q", a.Name, m.Syscall)
			}
			if m.Weight <= 0 {
				t.Errorf("%s: non-positive weight for %s", a.Name, m.Syscall)
			}
		}
	}
}

func TestCompileRequestRuns(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "t", Cores: 2, MemGB: 2,
		Params: kernel.Params{Quiet: true}}, rng.New(1))
	src := rng.New(2)
	for _, a := range Apps() {
		proc := syscalls.NewProc(eng)
		proc.VMAs = 8
		ctx := &syscalls.Ctx{Kern: k, Core: 0, Proc: proc, Cov: syscalls.NopCoverage{}}
		for trial := 0; trial < 10; trial++ {
			ops := a.CompileRequest(ctx, src)
			if len(ops) == 0 {
				t.Fatalf("%s compiled empty request", a.Name)
			}
			done := false
			var lat sim.Time
			k.Submit(0, &kernel.Task{Ops: ops, AddrSpace: proc.MM,
				OnDone: func(e sim.Time) { done, lat = true, e }})
			eng.Run()
			if !done {
				t.Fatalf("%s request did not complete", a.Name)
			}
			if lat < a.ServiceMean/4 {
				t.Fatalf("%s request latency %v implausibly below service %v", a.Name, lat, a.ServiceMean)
			}
		}
	}
}

// Apps resolves each mix once, so on a warmed context a request allocates
// only its op list and its argument scratch, whatever its app.
func TestCompileRequestAllocs(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "t", Cores: 2, MemGB: 2,
		Params: kernel.Params{Quiet: true}}, rng.New(1))
	src := rng.New(2)
	for _, a := range Apps() {
		proc := syscalls.NewProc(eng)
		proc.VMAs = 8
		ctx := &syscalls.Ctx{Kern: k, Core: 0, Proc: proc, Cov: syscalls.NopCoverage{}}
		for i := 0; i < 50; i++ { // warm the fd table and lock pages
			a.CompileRequest(ctx, src)
		}
		if n := testing.AllocsPerRun(100, func() { a.CompileRequest(ctx, src) }); n > 2 {
			t.Errorf("%s: %v allocs per request, want at most 2", a.Name, n)
		}
	}
}

// A warmed worker reuses its context, op list and task, so serving a
// request to completion allocates nothing for the apps whose mixes take
// no IPI and no block I/O (the executor's completions for those still
// allocate per op).
func TestWorkerServeAllocs(t *testing.T) {
	for _, name := range []string{"masstree", "img-dnn", "specjbb", "silo"} {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.Config{Name: "t", Cores: 2, MemGB: 2,
			Params: kernel.Params{Quiet: true}}, rng.New(1))
		src := rng.New(2)
		app := AppByName(name)
		served := 0
		w := NewWorker(eng, platform.CoreRef{Kernel: k}, 1, func(sim.Time) { served++ })
		serve := func() { w.Serve(app, src); eng.Run() }
		for i := 0; i < 50; i++ { // warm the list, fd table and lock pages
			serve()
		}
		if n := testing.AllocsPerRun(100, serve); n != 0 {
			t.Errorf("%s: %v allocs per served request, want 0", name, n)
		}
		if served != 50+101 {
			t.Fatalf("%s: %d requests completed, want %d", name, served, 50+101)
		}
	}
}

func TestShoreDoesIO(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "t", Cores: 1, MemGB: 2,
		Params: kernel.Params{Quiet: true}}, rng.New(1))
	src := rng.New(2)
	proc := syscalls.NewProc(eng)
	ctx := &syscalls.Ctx{Kern: k, Core: 0, Proc: proc, Cov: syscalls.NopCoverage{}}
	for i := 0; i < 20; i++ {
		ops := AppByName("shore").CompileRequest(ctx, src)
		k.Submit(0, &kernel.Task{Ops: ops, AddrSpace: proc.MM})
		eng.Run()
	}
	if k.Stats().BlockIOs == 0 {
		t.Fatal("shore never touched the block device")
	}
}

func TestMeasureServiceTimeOrdering(t *testing.T) {
	m := platform.Machine{Cores: 16, MemGB: 8}
	for _, a := range Apps() {
		dock := MeasureServiceTime(platform.KindContainers, a, m, 4, 3)
		kvm := MeasureServiceTime(platform.KindVMs, a, m, 4, 3)
		if dock <= 0 || kvm <= 0 {
			t.Fatalf("%s: non-positive service times %v %v", a.Name, dock, kvm)
		}
	}
	// silo is the virtualization-hostile profile: its idle service time must
	// be clearly higher under KVM (exit tax). mm-heavy apps can go either
	// way on small guests (fewer shootdown targets offset the virt tax), so
	// only silo's ordering is asserted.
	silo := AppByName("silo")
	dock := MeasureServiceTime(platform.KindContainers, silo, m, 4, 3)
	kvm := MeasureServiceTime(platform.KindVMs, silo, m, 4, 3)
	if kvm <= dock {
		t.Errorf("silo: virtualized service (%v) should exceed container service (%v)", kvm, dock)
	}
}

func smallServer(seed uint64) ServerOptions {
	return ServerOptions{Util: 0.75, Warmup: 30 * sim.Millisecond,
		Measure: 200 * sim.Millisecond, Seed: seed}
}

func TestRunSingleNodeIsolated(t *testing.T) {
	m := RunSingleNode(SingleNodeConfig{
		Kind:   platform.KindContainers,
		App:    AppByName("masstree"),
		Server: smallServer(4), Seed: 4,
		Machine: platform.Machine{Cores: 16, MemGB: 8}, Partitions: 4,
	})
	if m.N < 100 {
		t.Fatalf("only %d requests measured", m.N)
	}
	if m.P99 < m.P50 || m.Max < m.P99 || m.P50 <= 0 {
		t.Fatalf("quantiles disordered: %+v", m)
	}
	if m.Contended {
		t.Fatal("isolated run marked contended")
	}
}

func TestContentionHurtsDockerMoreThanKVM(t *testing.T) {
	opts := fuzz.NewOptions(42)
	opts.TargetPrograms = 30
	noise, _ := fuzz.Generate(opts)
	srv := ServerOptions{Util: 0.75, Warmup: 100 * sim.Millisecond,
		Measure: 600 * sim.Millisecond, Seed: 4}
	// The paper's geometry: 64 cores, 4 partitions (1 app + 3 noise).
	run := func(kind platform.EnvKind, cont bool) float64 {
		return RunSingleNode(SingleNodeConfig{
			Kind: kind, App: AppByName("moses"), Contended: cont,
			NoiseCorpus: noise, Server: srv, Seed: 4,
		}).P99
	}
	dockIso, dockCont := run(platform.KindContainers, false), run(platform.KindContainers, true)
	kvmIso, kvmCont := run(platform.KindVMs, false), run(platform.KindVMs, true)
	if dockIso <= 0 || kvmIso <= 0 {
		t.Fatal("degenerate p99s")
	}
	dockLoss := dockCont / dockIso
	kvmLoss := kvmCont / kvmIso
	if dockLoss <= kvmLoss {
		t.Fatalf("Docker contention loss (%.2fx) should exceed KVM's (%.2fx)", dockLoss, kvmLoss)
	}
	// The bounded-overhead side: Docker wins isolated.
	if dockIso >= kvmIso {
		t.Fatalf("isolated: Docker p99 (%.0f) should beat KVM (%.0f)", dockIso, kvmIso)
	}
}

func TestStartNoiseRespectsDeadline(t *testing.T) {
	opts := fuzz.NewOptions(1)
	opts.TargetPrograms = 5
	c, _ := fuzz.Generate(opts)
	eng := sim.NewEngine()
	env := platform.Containers(eng, platform.Machine{Cores: 8, MemGB: 4}, 2, rng.New(1))
	cores := []platform.CoreRef{env.Core(4), env.Core(5)}
	StartNoise(env, cores, c, 5*sim.Millisecond, 100*sim.Microsecond, nil)
	eng.Run()
	if eng.Now() > 20*sim.Millisecond {
		t.Fatalf("noise ran far past its deadline: now=%v", eng.Now())
	}
	if cores[0].Kernel.Stats().TasksRun == 0 {
		t.Fatal("noise issued no calls before deadline")
	}
}

func TestStartNoiseEmptyInputs(t *testing.T) {
	eng := sim.NewEngine()
	env := platform.Containers(eng, platform.Machine{Cores: 2, MemGB: 1}, 1, rng.New(1))
	StartNoise(env, nil, &corpus.Corpus{}, sim.Forever, 0, nil)
	eng.Run()
	if n := env.Core(0).Kernel.Stats().TasksRun; n != 0 {
		t.Fatalf("empty noise ran %d tasks", n)
	}
}
