package cluster

import (
	"testing"

	"ksa/internal/corpus"
	"ksa/internal/fuzz"
	"ksa/internal/platform"
	"ksa/internal/sim"
	"ksa/internal/tailbench"
)

func testNoise(t *testing.T) *corpus.Corpus {
	t.Helper()
	opts := fuzz.NewOptions(42)
	opts.TargetPrograms = 12
	c, _ := fuzz.Generate(opts)
	return c
}

func smallConfig(app string, kind platform.EnvKind, cont bool, noise *corpus.Corpus) Config {
	return Config{
		App: tailbench.AppByName(app), Kind: kind, Contended: cont,
		NoiseCorpus: noise, Nodes: 4, Iterations: 3, RequestsPerIter: 60,
		Seed: 11, NodeMachine: platform.Machine{Cores: 8, MemGB: 16},
	}
}

func TestRunCompletesAllIterations(t *testing.T) {
	r := Run(smallConfig("silo", platform.KindContainers, false, nil))
	if len(r.IterTimes) != 3 {
		t.Fatalf("got %d iteration times, want 3", len(r.IterTimes))
	}
	var sum sim.Time
	for i, it := range r.IterTimes {
		if it <= 0 {
			t.Fatalf("iteration %d has non-positive time %v", i, it)
		}
		sum += it
	}
	if r.Runtime < sum {
		t.Fatalf("total runtime %v below sum of iterations %v", r.Runtime, sum)
	}
	if r.MeanNodeTime <= 0 {
		t.Fatal("no mean node time recorded")
	}
}

func TestStragglerFactorAtLeastOne(t *testing.T) {
	r := Run(smallConfig("masstree", platform.KindContainers, false, nil))
	if f := r.StragglerFactor(); f < 1 {
		t.Fatalf("straggler factor %v < 1 (iteration max below node mean?)", f)
	}
	var empty Result
	if empty.StragglerFactor() != 1 {
		t.Fatal("empty result should report factor 1")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallConfig("img-dnn", platform.KindVMs, false, nil)
	a, b := Run(cfg), Run(cfg)
	if a.Runtime != b.Runtime {
		t.Fatalf("same config diverged: %v vs %v", a.Runtime, b.Runtime)
	}
	for i := range a.IterTimes {
		if a.IterTimes[i] != b.IterTimes[i] {
			t.Fatalf("iteration %d diverged", i)
		}
	}
}

func TestContentionSlowsContainersMoreThanVMs(t *testing.T) {
	noise := testNoise(t)
	// Use the paper-shaped node (24 cores) so the interference mechanisms
	// have their calibrated geometry; 8 nodes keeps the test fast.
	mk := func(kind platform.EnvKind, cont bool) sim.Time {
		cfg := Config{
			App: tailbench.AppByName("xapian"), Kind: kind, Contended: cont,
			NoiseCorpus: noise, Nodes: 8, Iterations: 3, RequestsPerIter: 80,
			Seed: 11,
		}
		return Run(cfg).Runtime
	}
	dockIso, dockCont := mk(platform.KindContainers, false), mk(platform.KindContainers, true)
	kvmIso, kvmCont := mk(platform.KindVMs, false), mk(platform.KindVMs, true)
	dockLoss := float64(dockCont) / float64(dockIso)
	kvmLoss := float64(kvmCont) / float64(kvmIso)
	if dockLoss <= kvmLoss {
		t.Fatalf("container loss (%.3fx) should exceed VM loss (%.3fx)", dockLoss, kvmLoss)
	}
	if dockIso >= kvmIso {
		t.Fatalf("isolated: containers (%v) should beat VMs (%v)", dockIso, kvmIso)
	}
}

func TestMoreNodesMoreStragglers(t *testing.T) {
	runtimeFor := func(nodes int) float64 {
		cfg := smallConfig("sphinx", platform.KindContainers, false, nil)
		cfg.Nodes = nodes
		r := Run(cfg)
		var sum sim.Time
		for _, it := range r.IterTimes {
			sum += it
		}
		return float64(sum) / float64(len(r.IterTimes)) / float64(r.MeanNodeTime)
	}
	f2, f16 := runtimeFor(2), runtimeFor(16)
	if f16 <= f2 {
		t.Fatalf("straggler amplification should grow with node count: %v (2 nodes) vs %v (16)", f2, f16)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { Run(Config{}) }, // no app
		func() {
			Run(Config{App: tailbench.AppByName("silo"), Kind: platform.KindVMs, Contended: true})
		}, // contended without corpus
		func() {
			Run(Config{App: tailbench.AppByName("silo"), Kind: platform.KindNative})
		}, // unsupported kind
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDefaultsFilled(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Nodes != 64 || cfg.Iterations == 0 || cfg.RequestsPerIter == 0 ||
		cfg.NodeMachine.Cores != 24 || cfg.Partitions != 2 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

// Each node serves through one tailbench worker per core and builds its
// iteration step once, so a cluster run's allocations barely grow with
// its request count for the apps whose mixes take no IPI and no block
// I/O.
func TestRequestAllocsFlat(t *testing.T) {
	for _, app := range []string{"masstree", "silo"} {
		for _, kind := range []platform.EnvKind{platform.KindVMs, platform.KindContainers} {
			allocs := func(reqs int) float64 {
				cfg := Config{App: tailbench.AppByName(app), Kind: kind, Nodes: 4, Iterations: 2,
					RequestsPerIter: reqs, Seed: 11, Workers: 1}
				return testing.AllocsPerRun(2, func() { Run(cfg) })
			}
			lo, hi := allocs(40), allocs(400)
			if per := (hi - lo) / (4 * 2 * (400 - 40)); per >= 0.5 {
				t.Errorf("%s/%v: %.2f allocations per extra request, want < 0.5", app, kind, per)
			}
		}
	}
}
