// Command ksabench measures the ksa program end to end on four workloads
// (sweep-cold, sweep-warm, density, cluster-bsp), each a fixed sequence of
// short, identical-in-kind ops replayed closed-loop and timed one by one,
// and, with --trace 1, splits each op across the public layer calls it
// makes. See README.md for the workloads, the metrics and how to read them.
//
//	bash ksabench/run.sh --workload density --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed the committed digests are for.
const defaultSeed = 42

//go:embed digests.json
var digestsJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	report   string // directory the traced run's report goes under
}

func main() {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("ksabench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sizes the fixed op count")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "ksabench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "ksabench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.report = filepath.Join(".bench_build", "report")
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksabench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksabench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, runs its warm-up and timed ops, and with
// cfg.trace the traced pass; it prints the human-readable lines to out and
// returns the result line.
func run(cfg config, out io.Writer) (res result, err error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	def := workloads[cfg.workload]
	timed := def.timedOps(cfg.seconds)
	total := def.warmup + timed
	dir, err := os.MkdirTemp("", "ksabench-")
	if err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	w := def.build(cfg.seed, total, dir)
	defer func() { err = errors.Join(err, w.close()) }()

	fmt.Fprintf(out, "ksabench workload=%s seed=%d ops=%d warmup=%d nproc=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, timed, def.warmup, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var setups []float64
	for k := 0; k < def.setups; k++ {
		if k > 0 {
			if err := w.close(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		runtime.GC() // a set-up starts from a collected heap; the collection is part of it
		if err := w.setup(); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	warm := runOps(0, def.warmup, w.op)
	runtime.GC() // every timed phase starts from a collected heap
	st0 := storeStats(w)
	p := runOps(def.warmup, total, w.op)
	st1 := storeStats(w)

	res = result{Attempted: total, Failed: warm.failed + p.failed}
	e2e := endToEnd(p, setups)
	writeEndToEnd(out, e2e, p, res)
	fmt.Fprintf(out, "steadiness: first set-up %.4g s vs median of %d %.4g s; warm-up p50 (first %d ops) %.4g ms vs timed p50 %.4g ms\n",
		setups[0], len(setups), median(setups), def.warmup, median(warm.latMs), e2e["op_ms_p50"].Value)

	digest := runDigest(append(warm.digests, p.digests...))
	key := fmt.Sprintf("%s/seed=%d/ops=%d", cfg.workload, cfg.seed, total)
	digestOK, note, err := checkDigest(key, digest)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "digest %s %s (%s)\n", key, digest, note)

	res.Metrics = e2e
	if cfg.trace {
		layers, failed, err := tracedPass(cfg, w, def.warmup, total, p, st1.Sub(st0), out)
		if err != nil {
			return res, err
		}
		res.Attempted += timed
		res.Failed += failed
		res.Metrics = layers
	}
	res.Correct = res.Failed == 0 && digestOK
	return res, nil
}
