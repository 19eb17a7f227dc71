package main

import (
	"fmt"
	"os"
	"sort"

	"ksa/internal/density"
	"ksa/internal/resultcache"
	"ksa/internal/runner"
)

// A workload drives one kind of op through the program's public entry
// points. Op i of a run is a pure function of the seed and i.
type workload interface {
	// setup prepares the state the ops run against. The benchmark calls it
	// several times, closing the previous state in between, and keeps the
	// last state.
	setup() error
	// op runs op i untraced.
	op(i int) (check, error)
	// traceSetup prepares the traced pass, recording its public calls as
	// set-up spans.
	traceSetup(tr *tracer) error
	// tracedOp repeats op i, recording a root span named "op" around the
	// calls that make up the untraced op, a child span per public layer
	// call, and any probe spans outside it.
	tracedOp(i int, tr *tracer) (check, error)
	// close releases what setup built.
	close() error
}

// workloadDef sizes and builds one workload.
type workloadDef struct {
	// rate is the nominal op rate on the reference host (2 cores): it turns
	// --seconds into a fixed op count, so a run's op sequence never depends
	// on how fast the host happens to be.
	rate float64
	// cycle is the period of the op sequence's round-robin; the op count is
	// a whole number of cycles so every run has the same op mix.
	cycle int
	// warmup is how many untimed ops run before the timed ones.
	warmup int
	// setups is how many times a run sets the workload up; setup_s is their
	// median. A process's first set-up pays one-off costs (page faults, heap
	// growth) that later ones do not, and a set-up of a fraction of a
	// millisecond needs many samples to give a steady median.
	setups int
	build  func(seed uint64, ops int, dir string) workload
}

// Sizes were measured on a 2-core host; see README.md.
var workloads = map[string]workloadDef{
	"sweep-cold": {rate: 30, cycle: len(sweepEnvs), warmup: 60, setups: 5,
		build: func(seed uint64, ops int, dir string) workload { return newSweepCold(seed, ops, dir) }},
	"sweep-warm": {rate: 40, cycle: warmJobs, warmup: warmJobs, setups: 3,
		build: func(seed uint64, _ int, dir string) workload { return newSweepWarm(seed, dir) }},
	"density": {rate: 20, cycle: len(density.Surfaces), warmup: 30, setups: 200,
		build: func(seed uint64, ops int, _ string) workload { return newDensity(seed, ops) }},
	"cluster-bsp": {rate: 50, cycle: clusterCycle, warmup: 2 * clusterCycle, setups: 15,
		build: func(seed uint64, ops int, _ string) workload { return newCluster(seed, ops) }},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// minOps keeps at least minTail ops beyond the p90 at any --seconds.
const minOps = 10 * minTail

// timedOps is the fixed op count a run of seconds measures.
func (d workloadDef) timedOps(seconds int) int {
	n := int(float64(seconds)*d.rate + 0.5)
	n = max(n, minOps)
	return (n + d.cycle - 1) / d.cycle * d.cycle
}

// groupSeed derives the seed of group g of a workload's ops: a sweep
// group's corpus, a warm job, a cluster cycle's noise corpus.
func groupSeed(seed uint64, workload string, g int) uint64 {
	return runner.DeriveSeed(seed, fmt.Sprintf("bench/%s/group=%d", workload, g))
}

// openEmptyStore opens a result store at dir, refusing a directory that
// already holds anything: a cold op must miss, and a reused store would
// quietly turn the workload warm.
func openEmptyStore(dir string) (*resultcache.Store, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if len(ents) > 0 {
		return nil, fmt.Errorf("store %s already holds entries", dir)
	}
	return resultcache.Open(dir)
}
