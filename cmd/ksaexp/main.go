// Command ksaexp regenerates the paper's tables and figures.
//
// Usage:
//
//	ksaexp [-exp name,...|all] [-scale default|quick]
//	       [-seed N] [-parallel N] [-cache dir|off] [-cache-verify]
//	       [-trace] [-fault name|list] [-remote url]
//	ksaexp -exp sweep [-envs list] [-trials N] [-workers N] [-worker-urls list]
//	       [-worker-bin path] [-serial [-cache-verify]] [-scale ...] [-seed N]
//	       [-cache dir] [-fault name]
//	ksaexp -exp density [-tenants list] [-requests N] [-exact-stats] [-scale ...]
//	ksaexp -exp specialize [-strict-profile] [-scale ...] [-cache dir]
//	ksaexp -exp isolation [-scale ...] [-csv dir]
//
// The -exp names are the entries of the experiment table (ksaexp -h lists
// them); "all" runs the paper's own tables and figures, in table order. An
// unknown name is a usage error, reported before anything runs.
//
// Every experiment reports wall time, simulated events, and the peak heap
// high-water observed while it ran; -exact-stats swaps the bounded-memory
// quantile sketch for exact retained samples (the oracle backend), which is
// visible in that peak-heap line at density scale.
//
// Output is the textual analog of each table/figure; EXPERIMENTS.md records
// a reference run side by side with the paper's numbers. -trace is an
// alias for adding the blame experiment (a traced native-machine varbench
// run attributing every over-threshold outlier to a kernel structure).
//
// -cache points every experiment at a content-addressed result store:
// simulation cells are consulted there before running and written through
// after, so a repeated invocation reports 100% hits and an interrupted one
// resumes executing only the missing cells, with byte-identical tables and
// CSV either way. -cache-verify recomputes every hit and asserts
// byte-equality with the stored entry (a standing bit-identity audit).
//
// -remote submits the selected experiments to a running ksad daemon
// instead of executing locally: each becomes a job on the daemon's shared
// pool and the rendered output comes back byte-identical to a local run.
//
// -exp sweep runs a distributed sweep: the environment × trial grid is
// sharded across worker processes — ksad daemons spawned for the run
// (-workers N, sharing -cache) and/or already-running ones (-worker-urls)
// — and merged to the exact digest a serial run produces. A worker killed
// mid-sweep is failed over via the cache's lease protocol; see
// internal/distsweep. A sweep refuses -exact-stats (its cells always keep
// the quantile sketch), and takes -cache-verify only with -serial.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ksa"
)

func main() {
	names, paper := tableNames()
	exps := flag.String("exp", "all", fmt.Sprintf("comma-separated experiments from %s; all = %s; sweep runs alone (a distributed sweep)",
		strings.Join(names, ","), strings.Join(paper, ",")))
	scaleName := flag.String("scale", "default", "experiment scale: default or quick")
	seed := flag.Uint64("seed", 0, "override the scale's seed (unset = keep)")
	parallel := flag.Int("parallel", 0, "worker threads for independent simulations (0 = GOMAXPROCS); results are bit-identical for any value")
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty or 'off' disables); repeated runs reuse bit-identical cached cells, interrupted runs resume")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every cache hit and assert byte-equality with the stored entry")
	traceOn := flag.Bool("trace", false, "also run the blame experiment (same as adding 'blame' to -exp)")
	faultName := flag.String("fault", "mixed", "interference plan for -exp interference: a preset name, or 'list' to print the presets and exit")
	remote := flag.String("remote", "", "ksad base URL (e.g. http://127.0.0.1:7077): submit the selected experiments as daemon jobs instead of running locally")
	envs := flag.String("envs", "native,kvm-8,docker-64", "for -exp sweep: comma-separated environment specs")
	trials := flag.Int("trials", 3, "for -exp sweep: trials per environment")
	workers := flag.Int("workers", 0, "for -exp sweep: spawn N local ksad worker processes for the run (shares -cache)")
	workerURLs := flag.String("worker-urls", "", "for -exp sweep: comma-separated base URLs of running ksad workers")
	workerBin := flag.String("worker-bin", "", "for -exp sweep -workers: ksad binary (default: sibling of this executable, then $PATH)")
	serial := flag.Bool("serial", false, "for -exp sweep: run the grid serially in-process instead of distributing — the digest oracle distributed runs are checked against")
	tenants := flag.String("tenants", "", "for -exp density: comma-separated tenant counts (overrides the scale's grid)")
	requests := flag.Int("requests", 0, "for -exp density: cold-start requests per tenant (0 = keep the scale's default)")
	exactStats := flag.Bool("exact-stats", false, "retain every observation exactly instead of the bounded-memory quantile sketch (the memory-hungry oracle backend; changes cache keys, not simulations)")
	strictProfile := flag.Bool("strict-profile", false, "for -exp specialize: exit non-zero if any in-profile call faults on the specialized kernel (the deliberate out-of-profile probe is exempt)")
	flag.Parse()

	if *faultName == "list" {
		for _, name := range ksa.FaultPresets() {
			p, _ := ksa.FaultPreset(name)
			fmt.Printf("%s: %d injector(s)\n", name, len(p.Injectors))
		}
		return
	}
	if _, err := ksa.FaultNamed(*faultName); err != nil {
		fmt.Fprintln(os.Stderr, "ksaexp:", err)
		os.Exit(2)
	}
	selected, sweep, err := selectExperiments(*exps, *traceOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksaexp:", err)
		os.Exit(2)
	}

	if flagWasSet("seed") && *seed == 0 {
		fmt.Fprintln(os.Stderr, "ksaexp: -seed 0 is the 'keep the scale's default' sentinel; pass a nonzero seed (or omit the flag)")
		os.Exit(2)
	}
	sc, err := ksa.ScaleNamed(*scaleName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksaexp:", err)
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "ksaexp: -parallel must be >= 0")
		os.Exit(2)
	}
	sc.Parallel = *parallel

	var cache *ksa.ResultCache
	if *cacheDir != "" && *cacheDir != "off" {
		cache, err = ksa.OpenResultCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(2)
		}
	}
	if *cacheVerify && cache == nil {
		fmt.Fprintln(os.Stderr, "ksaexp: -cache-verify needs -cache <dir>")
		os.Exit(2)
	}
	sc.Cache = cache
	sc.CacheVerify = *cacheVerify
	sc.ExactStats = *exactStats
	if *tenants != "" {
		var grid []int
		for _, t := range strings.Split(*tenants, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(t))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "ksaexp: bad -tenants entry %q\n", t)
				os.Exit(2)
			}
			grid = append(grid, n)
		}
		sc.DensityTenants = grid
	}
	if *requests > 0 {
		sc.RequestsPerTenant = *requests
	}

	if sweep {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "ksaexp: -exp sweep does not take -remote (point -worker-urls at the daemons instead)")
			os.Exit(2)
		}
		// A sweep resolves its scale from the spec, whose cells always keep
		// the quantile sketch, and only the serial oracle reads the cache
		// in-process.
		if *exactStats {
			fmt.Fprintln(os.Stderr, "ksaexp: -exp sweep does not take -exact-stats (its cells always use the quantile sketch)")
			os.Exit(2)
		}
		if *cacheVerify && !*serial {
			fmt.Fprintln(os.Stderr, "ksaexp: -cache-verify with -exp sweep needs -serial (the workers own the distributed run's cache reads)")
			os.Exit(2)
		}
		spec := ksa.SweepSpec{Scale: *scaleName, Seed: *seed, Envs: strings.Split(*envs, ","), Trials: *trials}
		if flagWasSet("fault") {
			spec.Fault = *faultName // sweeps default to clean runs
		}
		o, err := spec.Options()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(2)
		}
		if *serial {
			o.Scale.CacheVerify = *cacheVerify
			runSerialSweep(o, cache)
			return
		}
		runDistributedSweep(spec, *workerURLs, *workers, *workerBin, *cacheDir)
		return
	}
	if *remote != "" {
		runRemote(*remote, selected, *scaleName, *seed, *faultName, *csvDir, *cacheDir, *cacheVerify)
		return
	}

	for _, exp := range selected {
		t0 := time.Now()
		ev0 := ksa.EventsExecuted()
		var c0 ksa.CacheStats
		if cache != nil {
			c0 = cache.Stats()
		}
		var out ksa.ExperimentOutput
		var err error
		peak := peakHeap(func() { out, err = exp.Run(context.Background(), sc, *faultName) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "ksaexp: %s: %v\n", exp.Name, err)
			os.Exit(1)
		}
		fmt.Println(out.Text)
		if *csvDir != "" && out.CSV != "" {
			writeCSV(*csvDir, exp.Name, out.CSV)
		}
		if res, ok := out.Result.(ksa.SpecializeResult); ok && *strictProfile && res.MeasuredFaults > 0 {
			fmt.Fprintf(os.Stderr, "ksaexp: -strict-profile: %d in-profile call(s) faulted on the specialized kernel\n",
				res.MeasuredFaults)
			os.Exit(1)
		}
		wall := time.Since(t0)
		ev := ksa.EventsExecuted() - ev0
		if ev > 0 && wall > 0 {
			fmt.Printf("[%s finished in %v — %.2fM events, %.2fM events/sec, peak heap %.1f MiB]\n",
				exp.Name, wall.Round(time.Millisecond),
				float64(ev)/1e6, float64(ev)/wall.Seconds()/1e6, float64(peak)/(1<<20))
		} else {
			fmt.Printf("[%s finished in %v — peak heap %.1f MiB]\n",
				exp.Name, wall.Round(time.Millisecond), float64(peak)/(1<<20))
		}
		if cache != nil {
			if d := cache.Stats().Sub(c0); d.Lookups() > 0 {
				fmt.Printf("[%s cache: %s]\n", exp.Name, d)
			}
		}
		fmt.Println()
	}
}

// tableNames lists the experiment table's names, and those "-exp all"
// runs.
func tableNames() (names, paper []string) {
	for _, e := range ksa.Experiments {
		names = append(names, e.Name)
		if e.InAll {
			paper = append(paper, e.Name)
		}
	}
	return names, paper
}

// selectExperiments resolves the -exp list (plus -trace, an alias for
// blame) to table entries in table order. "all" selects the paper's own
// experiments; "sweep" selects the distributed-sweep mode, which runs
// alone. An unknown name is an error, so nothing runs on a typo.
func selectExperiments(list string, trace bool) ([]ksa.Experiment, bool, error) {
	want := map[string]bool{"blame": trace}
	sweep := false
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "sweep":
			sweep = true
		case "all":
			for _, e := range ksa.Experiments {
				want[e.Name] = want[e.Name] || e.InAll
			}
		default:
			if _, err := ksa.LookupExperiment(name); err != nil {
				names, _ := tableNames()
				return nil, false, fmt.Errorf("unknown -exp %q (want all, sweep, or any of %s)",
					name, strings.Join(names, ", "))
			}
			want[name] = true
		}
	}
	var out []ksa.Experiment
	for _, e := range ksa.Experiments {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	if sweep && len(out) > 0 {
		return nil, false, fmt.Errorf("-exp sweep runs alone (it has its own grid flags)")
	}
	return out, sweep, nil
}

// writeCSV writes one experiment's CSV rows to dir/name.csv.
func writeCSV(dir, name, rows string) {
	path := dir + "/" + name + ".csv"
	if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ksaexp:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "ksaexp: wrote %s\n", path)
}

// peakHeap runs fn while sampling the runtime heap in the background and
// returns the high-water HeapAlloc (bytes) observed. Millisecond-scale
// polling misses sub-poll allocation spikes but captures the sustained
// retained-data footprint — the quantity the sketch vs exact-stats backends
// differ on by orders of magnitude at high tenant density.
func peakHeap(fn func()) uint64 {
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
	sample()
	return peak.Load()
}

// flagWasSet reports whether the named flag appeared on the command line
// (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runRemote submits the selected experiments as jobs to a ksad daemon,
// follows each job's event stream, and prints the rendered output — which
// is byte-identical to what the same flags would produce locally.
func runRemote(base string, selected []ksa.Experiment, scaleName string,
	seed uint64, faultName, csvDir, cacheDir string, cacheVerify bool) {
	if csvDir != "" || cacheDir != "" || cacheVerify {
		fmt.Fprintln(os.Stderr, "ksaexp: -csv/-cache/-cache-verify are local-only; the daemon owns its cache (start ksad with -cache)")
		os.Exit(2)
	}
	ctx := context.Background()
	cl := &ksa.DaemonClient{Base: base}
	for _, exp := range selected {
		spec := ksa.JobSpec{Type: "experiment", Exp: exp.Name, Scale: scaleName, Seed: seed, Fault: faultName}
		t0 := time.Now()
		info, err := cl.Submit(ctx, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ksaexp: %s submitted as %s\n", exp.Name, info.ID)
		info, err = cl.Wait(ctx, info.ID, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(1)
		}
		if info.State != "done" {
			fmt.Fprintf(os.Stderr, "ksaexp: %s %s: %s\n", info.ID, info.State, info.Error)
			os.Exit(1)
		}
		fmt.Println(info.Result.Rendered)
		fmt.Printf("[%s finished in %v via %s]\n\n", exp.Name, time.Since(t0).Round(time.Millisecond), base)
	}
}
