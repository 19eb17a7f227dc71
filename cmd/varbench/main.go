// Command varbench deploys a system-call corpus across every core of a
// chosen environment with global barrier synchronization and prints the
// per-call-site latency breakdowns (the harness of the paper's §3.2).
//
// Usage:
//
//	varbench [-corpus file] [-env native|kvm|docker|lightvm] [-units N]
//	         [-cores N] [-mem GB] [-iters N] [-warmup N] [-seed N]
//	         [-trials N] [-parallel N] [-cache dir|off] [-cache-verify]
//	         [-trace] [-fault name|list]
//
// Without -corpus, a corpus is generated on the fly from the seed. With
// -trace, every kernel is traced and the blame report (top-blamed shared
// structures, worst records, pooled lockstat) follows the breakdowns.
//
// -cache memoizes runs in a content-addressed result store: a repeated
// invocation is served from disk bit-identically, and an interrupted
// multi-trial sweep resumes executing only the missing trials.
// -cache-verify recomputes every hit and asserts byte-equality with the
// stored entry. Traced runs and runs needing live kernel state
// (-contention) bypass the cache.
//
// With -trials N (N > 1) the run becomes a sweep: N independent
// repetitions of the same configuration, each with a seed derived from its
// trial key, fanned across -parallel worker threads (0 = GOMAXPROCS). The
// per-trial breakdowns and the fan-out metrics are printed; results are
// bit-identical for every -parallel value.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ksa"
)

func main() {
	corpusPath := flag.String("corpus", "", "corpus file from ksagen (default: generate)")
	envKind := flag.String("env", "native", "environment kind: native, kvm, docker, or lightvm")
	units := flag.Int("units", 64, "number of VMs/containers (ignored for native)")
	cores := flag.Int("cores", 64, "machine cores")
	mem := flag.Float64("mem", 32, "machine memory (GB)")
	iters := flag.Int("iters", 20, "recorded iterations per program (0 = warmup only)")
	warmup := flag.Int("warmup", 2, "warmup iterations")
	seed := flag.Uint64("seed", 42, "experiment seed (nonzero)")
	trials := flag.Int("trials", 1, "independent repetitions with per-trial derived seeds")
	parallel := flag.Int("parallel", 0, "worker threads for a multi-trial sweep (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty or 'off' disables)")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every cache hit and assert byte-equality with the stored entry")
	contention := flag.Bool("contention", false, "print per-kernel lock contention reports")
	traceOn := flag.Bool("trace", false, "trace every kernel and print the blame report")
	faultName := flag.String("fault", "", "dose the run with an interference plan: a preset name, or 'list' to print the presets and exit")
	flag.Parse()

	if *faultName == "list" {
		for _, name := range ksa.FaultPresets() {
			p, _ := ksa.FaultPreset(name)
			fmt.Printf("%s: %d injector(s)\n", name, len(p.Injectors))
		}
		return
	}
	faults, err := ksa.FaultNamed(*faultName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "varbench:", err)
		os.Exit(2)
	}

	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "varbench: -seed 0 is reserved as the 'unset' sentinel across the ksa tools; pass a nonzero seed")
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		v    int
		min  int
	}{{"iters", *iters, 0}, {"warmup", *warmup, 0}, {"trials", *trials, 1}, {"parallel", *parallel, 0}} {
		if f.v < f.min {
			fmt.Fprintf(os.Stderr, "varbench: -%s must be >= %d\n", f.name, f.min)
			os.Exit(2)
		}
	}
	// One environment: a -trials sweep is bounded like every other grid.
	if err := ksa.CheckSweepSize(1, *trials); err != nil {
		fmt.Fprintln(os.Stderr, "varbench:", err)
		os.Exit(2)
	}
	// The flag's zero is explicit (the default is 20), so it maps to the
	// library's literal-zero sentinel rather than "use the default".
	itersOpt := *iters
	if itersOpt == 0 {
		itersOpt = ksa.ExplicitZero
	}

	m := ksa.Machine{Cores: *cores, MemGB: *mem}
	// Specialized kernels are generated from a workload profile, which only
	// sweeps and experiments derive (ksaexp -exp sweep -envs specialized-N).
	kind, ok := ksa.ParseEnvKind(*envKind)
	if !ok || kind == ksa.KindSpecialized {
		fmt.Fprintf(os.Stderr, "varbench: unknown -env %q (want native, kvm, docker, or lightvm)\n", *envKind)
		os.Exit(2)
	}

	spec := ksa.EnvSpec{Kind: kind}
	if kind != ksa.KindNative {
		spec.Units = *units
	}
	if err := spec.Check(m); err != nil {
		fmt.Fprintln(os.Stderr, "varbench:", err)
		os.Exit(2)
	}

	var c *ksa.Corpus
	if *corpusPath != "" {
		f, err := os.Open(*corpusPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "varbench:", err)
			os.Exit(1)
		}
		c, err = ksa.ReadCorpus(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "varbench:", err)
			os.Exit(1)
		}
	} else {
		c, _ = ksa.GenerateCorpus(ksa.CorpusOptions{Seed: *seed, TargetPrograms: 80})
	}

	var cache *ksa.ResultCache
	if *cacheDir != "" && *cacheDir != "off" {
		cache, err = ksa.OpenResultCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "varbench:", err)
			os.Exit(2)
		}
	}
	if *cacheVerify && cache == nil {
		fmt.Fprintln(os.Stderr, "varbench: -cache-verify needs -cache <dir>")
		os.Exit(2)
	}

	if *trials > 1 {
		runSweep(spec, m, c, itersOpt, *warmup, *seed, *trials, *parallel, *traceOn, faults,
			cache, *cacheVerify)
		return
	}

	opts := ksa.VarbenchOptions{Iterations: itersOpt, Warmup: *warmup, Seed: *seed, Faults: faults}
	if *traceOn {
		opts.Trace = &ksa.TraceOptions{}
	}
	var res *ksa.VarbenchResult
	var env *ksa.Environment
	if *contention {
		// The contention report reads live kernel state after the run, so
		// this path keeps its environment and bypasses the cache (traced
		// runs bypass it inside RunVarbenchCached for the same reason).
		if cache != nil {
			fmt.Fprintln(os.Stderr, "varbench: -contention needs live kernels; running uncached")
		}
		env = spec.Build(ksa.NewEngine(), m, *seed)
		res = ksa.RunVarbench(env, c, opts)
	} else {
		res = ksa.RunVarbenchCached(cache, *cacheVerify, spec, m, c, opts)
	}
	fmt.Printf("%s: %d call sites, %d cores, %d iterations\n",
		res.Env, len(res.Sites), res.Cores, res.Iterations)
	printBreakdowns(res)
	if *contention {
		fmt.Println()
		// With many kernels (64 VMs) print only the first; they are
		// statistically interchangeable.
		limit := len(env.Kernels)
		if limit > 2 {
			limit = 2
		}
		for _, k := range env.Kernels[:limit] {
			fmt.Println(k.Contention().String())
		}
	}
	if *traceOn {
		fmt.Println()
		fmt.Print(ksa.RenderBlame(res, 10))
	}
	if cache != nil && !*contention && !*traceOn {
		fmt.Printf("cache: %s\n", cache.Stats())
	}
}

func printBreakdowns(res *ksa.VarbenchResult) {
	fmt.Printf("%-8s %8s %8s %8s %8s %8s %8s\n", "metric", "1µs", "10µs", "100µs", "1ms", "10ms", ">10ms")
	for _, row := range []struct {
		name string
		b    ksa.Breakdown
	}{
		{"median", res.MedianBreakdown()},
		{"p99", res.P99Breakdown()},
		{"max", res.MaxBreakdown()},
	} {
		cells := row.b.Row()
		fmt.Printf("%-8s", row.name)
		for _, cell := range cells {
			fmt.Printf(" %8s", cell)
		}
		fmt.Println()
	}
}

func runSweep(env ksa.EnvSpec, m ksa.Machine, c *ksa.Corpus,
	iters, warmup int, seed uint64, trials, parallel int, traceOn bool, faults *ksa.FaultPlan,
	cache *ksa.ResultCache, cacheVerify bool) {
	sc := ksa.QuickScale()
	sc.Seed = seed
	sc.Iterations = iters
	sc.Warmup = warmup
	sc.Parallel = parallel
	sc.Cache = cache
	sc.CacheVerify = cacheVerify
	// Runners fail only when their context is cancelled; this one never is.
	res, _ := ksa.RunSweep(context.Background(), ksa.SweepOptions{
		Scale: sc, Machine: m, Envs: []ksa.EnvSpec{env},
		Trials: trials, Trace: traceOn, Corpus: c, Faults: faults,
	})
	for _, run := range res.Runs {
		fmt.Printf("%s (seed %#x): %d call sites, %d cores, %d iterations\n",
			run.Key(), run.Seed, len(run.Res.Sites), run.Res.Cores, run.Res.Iterations)
		printBreakdowns(run.Res)
		if traceOn {
			fmt.Println()
			fmt.Print(ksa.RenderBlame(run.Res, 5))
		}
		fmt.Println()
	}
	fmt.Println(res.Par.String())
}
