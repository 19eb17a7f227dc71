package ksa_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each regenerating its artifact at a reduced scale per
// iteration, plus micro-benchmarks for the substrate's hot paths. Run
//
//	go test -bench=. -benchmem
//
// at the repository root; EXPERIMENTS.md records a full-scale reference
// run (via cmd/ksaexp) against the paper's numbers.
//
// The experiment runners fan their independent simulations across
// GOMAXPROCS worker threads (Scale.Parallel = 0), so
//
//	go test -bench 'Figure|Table' -cpu 1,8
//
// contrasts serial and 8-way parallel sweeps directly; results are
// bit-identical at every -cpu value, only wall-clock time changes.
// BenchmarkSweepParallel isolates the orchestrator itself.

import (
	"context"
	"testing"

	"ksa"
	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/kernel"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

func benchScale() ksa.Scale {
	sc := ksa.QuickScale()
	sc.CorpusPrograms = 20
	sc.Iterations = 5
	return sc
}

// BenchmarkTable1 regenerates Table 1 (the VM configuration spectrum).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ksa.VMConfigTable().String()
	}
}

// BenchmarkTable2 regenerates Table 2: median/p99/max decade breakdowns on
// native, 64 one-core VMs, and 64 containers.
func BenchmarkTable2(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunTable2(context.Background(), sc)
		if len(res.Envs) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: per-category p99 violins across
// the seven VM configurations.
func BenchmarkFigure2(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunFigure2(context.Background(), sc)
		if len(res.Categories) != 6 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTable3 regenerates Table 3: worst-case breakdowns across
// container counts 1..64.
func BenchmarkTable3(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunTable3(context.Background(), sc)
		if len(res.Counts) != 7 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: single-node tailbench p99 under
// isolation and contention on both substrates (all eight apps).
func BenchmarkFigure3(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunFigure3(context.Background(), sc)
		if len(res.Rows) != 8 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: BSP cluster runtimes for the six
// cluster apps on both substrates, isolated and contended.
func BenchmarkFigure4(b *testing.B) {
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunFigure4(context.Background(), sc)
		if len(res.Rows) != 6 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkDensitySweep runs the high-density serverless extension at a
// small grid. With -benchmem it pins the scenario's allocation footprint,
// which is dominated by building a kernel and a runner per tenant: a
// -memprofile puts about 31% of its bytes in lock pages, 19% in
// kernel.New, 15% in corpus.NewRunner and its process, and 10% in the op
// lists each new runner grows. The stats backend is about 5%: the default
// sketch holds every latency stream in a fixed histogram, so its share
// stays flat as tenant counts grow, where the exact backend's retained
// samples scale linearly (compare with sc.ExactStats = true).
func BenchmarkDensitySweep(b *testing.B) {
	sc := ksa.QuickScale()
	sc.DensityTenants = []int{400}
	sc.RequestsPerTenant = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunDensity(context.Background(), sc)
		if len(res.Rows) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkDensitySweepExact is BenchmarkDensitySweep on the exact
// retained-sample backend — the pre-sketch behavior. The b/op delta against
// the default benchmark is the memory the sketch removes at this small
// scale; it grows linearly with DensityTenants while the default stays flat.
func BenchmarkDensitySweepExact(b *testing.B) {
	sc := ksa.QuickScale()
	sc.DensityTenants = []int{400}
	sc.RequestsPerTenant = 2
	sc.ExactStats = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunDensity(context.Background(), sc)
		if len(res.Rows) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkEngine measures raw event dispatch through the unboxed 4-ary
// heap: schedule-and-run batches at mixed timestamps, the access pattern
// every simulation reduces to. Allocations here should be zero — the
// scheduled fn is prebuilt and the slab is warmed by the first batch.
func BenchmarkEngine(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := sim.Time(0); j < 64; j++ {
			e.After(j%7, fn)
		}
		e.Run()
	}
}

// benchProgram is a small mixed program (fd wiring, file I/O, pure
// compute) for the runner micro-benchmarks.
func benchProgram(b *testing.B) *corpus.Program {
	tab := syscalls.Default()
	mustID := func(name string) syscalls.ID {
		s := tab.Lookup(name)
		if s == nil {
			b.Fatalf("no syscall %q", name)
		}
		return s.ID()
	}
	return &corpus.Program{Calls: []corpus.Call{
		{Syscall: mustID("open"), Args: []corpus.ArgValue{corpus.Const(5), corpus.Const(0x42)}},
		{Syscall: mustID("read"), Args: []corpus.ArgValue{corpus.Result(0), corpus.Const(4096)}},
		{Syscall: mustID("write"), Args: []corpus.ArgValue{corpus.Result(0), corpus.Const(512)}},
		{Syscall: mustID("getpid")},
		{Syscall: mustID("close"), Args: []corpus.ArgValue{corpus.Result(0)}},
	}}
}

// BenchmarkCompiledProgram measures one compile-once/replay-many iteration
// on a warmed runner — the per-iteration cost varbench pays at every
// (core, program, iteration) cell.
func BenchmarkCompiledProgram(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "b", Cores: 1, MemGB: 1}, rng.New(7))
	r := corpus.NewRunner(eng, k, 0, nil)
	cp := corpus.Compile(benchProgram(b), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ResetProc()
		r.RunCompiled(cp, nil, nil)
		eng.Run()
	}
}

// BenchmarkProgramCompile measures the compile step itself (paid once per
// program per harness run, then amortized across cores × iterations).
func BenchmarkProgramCompile(b *testing.B) {
	p := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = corpus.Compile(p, nil)
	}
}

// BenchmarkCorpusGeneration measures the coverage-guided generation loop.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, _ := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: uint64(i + 1), TargetPrograms: 20})
		if len(c.Programs) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkVarbenchNative measures the harness's syscall throughput on a
// shared 64-core kernel (events through the discrete-event engine dominate).
func BenchmarkVarbenchNative(b *testing.B) {
	c, _ := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 9, TargetPrograms: 15})
	opts := ksa.VarbenchOptions{Iterations: 3, Warmup: 0, Seed: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := ksa.EnvSpec{Kind: ksa.KindNative}.Build(ksa.NewEngine(), ksa.PaperMachine, 7)
		_ = ksa.RunVarbench(env, c, opts)
	}
}

// BenchmarkSweepParallel measures the worker-pool orchestrator end to end:
// an 8-job environment × trial sweep fanned across GOMAXPROCS workers (set
// -cpu 1,8 to contrast serial and parallel wall-clock on the same
// bit-identical results).
func BenchmarkSweepParallel(b *testing.B) {
	sc := ksa.QuickScale()
	sc.CorpusPrograms = 10
	sc.Iterations = 3
	opts := ksa.SweepOptions{
		Scale:   sc,
		Machine: ksa.Machine{Cores: 8, MemGB: 4},
		Envs: []ksa.EnvSpec{
			{Kind: ksa.KindNative},
			{Kind: ksa.KindVMs, Units: 4},
			{Kind: ksa.KindVMs, Units: 8},
			{Kind: ksa.KindContainers, Units: 8},
		},
		Trials: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := ksa.RunSweep(context.Background(), opts)
		if len(res.Runs) != 8 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkVarbenchWithFaults is BenchmarkVarbenchNative with the "mixed"
// interference plan attached — the delta against the clean benchmark is the
// injection subsystem's total overhead, and -benchmem pins the injected
// events' steady-state allocation cost (the per-event budget is zero; see
// internal/fault's AllocsPerRun test).
func BenchmarkVarbenchWithFaults(b *testing.B) {
	c, _ := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 9, TargetPrograms: 15})
	plan, ok := ksa.FaultPreset("mixed")
	if !ok {
		b.Fatal("mixed preset missing")
	}
	opts := ksa.VarbenchOptions{Iterations: 3, Warmup: 0, Seed: 9, Faults: &plan}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := ksa.EnvSpec{Kind: ksa.KindNative}.Build(ksa.NewEngine(), ksa.PaperMachine, 7)
		_ = ksa.RunVarbench(env, c, opts)
	}
}

// BenchmarkVarbench64VMs is the same workload on 64 partitioned kernels.
func BenchmarkVarbench64VMs(b *testing.B) {
	c, _ := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 9, TargetPrograms: 15})
	opts := ksa.VarbenchOptions{Iterations: 3, Warmup: 0, Seed: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := ksa.EnvSpec{Kind: ksa.KindVMs, Units: 64}.Build(ksa.NewEngine(), ksa.PaperMachine, 7)
		_ = ksa.RunVarbench(env, c, opts)
	}
}

// BenchmarkSpecializedVsFull contrasts the same corpus on a full-surface
// native kernel and on 8 profile-specialized per-tenant kernels of the same
// 8-core machine: the specialized sub-run includes nothing the full one
// does not — profiling and reduction generation happen once outside the
// timed loop, exactly as a deployment would amortize them.
func BenchmarkSpecializedVsFull(b *testing.B) {
	c, _ := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 9, TargetPrograms: 15})
	m := ksa.Machine{Cores: 8, MemGB: 4}
	opts := ksa.VarbenchOptions{Iterations: 3, Warmup: 0, Seed: 9}
	prof := ksa.ProfileCorpus(c, nil, ksa.DeriveSeed(9, "specialize/profile"), 0)
	run := func(spec ksa.EnvSpec) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ksa.RunVarbenchCached(nil, false, spec, m, c, opts)
				if len(res.Sites) == 0 {
					b.Fatal("no sites")
				}
			}
		}
	}
	b.Run("full", run(ksa.EnvSpec{Kind: ksa.KindNative}))
	b.Run("specialized-8", run(ksa.EnvSpec{Kind: ksa.KindSpecialized, Units: 8, Profile: prof}))
}

// warmSweepOptions is a quick 5-environment × 2-trial sweep, the grid a
// warm ksad sweep job serves.
func warmSweepOptions(b *testing.B, st *resultcache.Store) core.SweepOptions {
	envs, err := core.ParseEnvSpecs([]string{"native", "kvm-8", "kvm-64", "docker-64", "specialized-64"})
	if err != nil {
		b.Fatal(err)
	}
	sc := core.QuickScale()
	sc.Cache = st
	return core.SweepOptions{Scale: sc, Envs: envs, Trials: 2}
}

// BenchmarkCodecResult measures the result codec on one quick sweep's 10
// cells: encoding each cell's payload, and decoding it back.
func BenchmarkCodecResult(b *testing.B) {
	res, err := core.RunSweep(context.Background(), warmSweepOptions(b, nil))
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, len(res.Runs))
	for i, run := range res.Runs {
		payloads[i] = codec.EncodeResult(run.Res)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, run := range res.Runs {
				codec.EncodeResult(run.Res)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, p := range payloads {
				if _, err := codec.DecodeResult(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWarmSweep serves a fully cached quick 5 × 2 sweep in process
// the way a warm ksad job does once planned: every cell read from the
// result store and decoded (SweepPlan.Run), then rendered and digested.
func BenchmarkWarmSweep(b *testing.B) {
	st, err := resultcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	plan := core.PlanSweep(warmSweepOptions(b, st))
	if _, err := plan.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := plan.Run(context.Background())
		if err != nil || res.Par.CacheHits != len(plan.Cells) {
			b.Fatalf("warm sweep: %d of %d cells from the store (%v)", res.Par.CacheHits, len(plan.Cells), err)
		}
		_ = res.Render()
		_ = res.Digest()
	}
}
