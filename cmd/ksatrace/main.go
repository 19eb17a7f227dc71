// Command ksatrace runs the varbench corpus with kernel tracing enabled
// and prints the blame report: which shared kernel structure — journal
// lock, mmap_sem, IPI bus, housekeeping stream, block device — each
// over-threshold call-site outlier spent its wall time on.
//
// Usage:
//
//	ksatrace [-env native|kvm|docker|lightvm] [-units N]
//	         [-scale default|quick] [-seed N] [-threshold dur]
//	         [-top N] [-csv]
//
// With -csv the full decomposition of every retained outlier is written
// to stdout as CSV (one row per record part) instead of the text report.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ksa"
)

func main() {
	envKind := flag.String("env", "native", "environment kind: native, kvm, docker, or lightvm")
	units := flag.Int("units", 64, "number of VMs/containers (ignored for native)")
	scaleName := flag.String("scale", "default", "experiment scale: default or quick")
	seed := flag.Uint64("seed", 0, "override the scale's seed (unset = keep)")
	threshold := flag.Duration("threshold", time.Millisecond, "wall-time above which a call earns a blame record")
	top := flag.Int("top", 10, "worst records to list in the text report")
	csv := flag.Bool("csv", false, "write blame records as CSV to stdout instead of the text report")
	flag.Parse()

	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if seedSet && *seed == 0 {
		fmt.Fprintln(os.Stderr, "ksatrace: -seed 0 is the 'keep the scale's default' sentinel; pass a nonzero seed (or omit the flag)")
		os.Exit(2)
	}
	sc, err := ksa.ScaleNamed(*scaleName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksatrace:", err)
		os.Exit(2)
	}
	// Specialized kernels are generated from a workload profile, which only
	// sweeps and experiments derive (ksaexp -exp sweep -envs specialized-N).
	kind, ok := ksa.ParseEnvKind(*envKind)
	if !ok || kind == ksa.KindSpecialized {
		fmt.Fprintf(os.Stderr, "ksatrace: unknown -env %q (want native, kvm, docker, or lightvm)\n", *envKind)
		os.Exit(2)
	}
	if *threshold <= 0 {
		fmt.Fprintln(os.Stderr, "ksatrace: -threshold must be positive")
		os.Exit(2)
	}
	if *top < 0 {
		fmt.Fprintln(os.Stderr, "ksatrace: -top must be >= 0")
		os.Exit(2)
	}
	env := ksa.EnvSpec{Kind: kind, Units: *units}
	if err := env.Check(ksa.PaperMachine); err != nil {
		fmt.Fprintln(os.Stderr, "ksatrace:", err)
		os.Exit(2)
	}

	// Runners fail only when their context is cancelled; this one never is.
	res, _ := ksa.RunBlame(context.Background(), sc, env, ksa.Time(threshold.Nanoseconds()))
	if *csv {
		fmt.Print(res.CSV())
		return
	}
	fmt.Printf("Blame report: %s\n\n", res.Env)
	fmt.Print(ksa.RenderBlame(res.Res, *top))
}
