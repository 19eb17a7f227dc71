package ksa_test

import (
	"strings"
	"testing"

	"ksa"
)

func TestFacadeEndToEnd(t *testing.T) {
	c, stats := ksa.GenerateCorpus(ksa.CorpusOptions{Seed: 3, TargetPrograms: 10})
	if len(c.Programs) != 10 || stats.TotalBlocks == 0 {
		t.Fatalf("corpus generation: %d programs, %d blocks", len(c.Programs), stats.TotalBlocks)
	}

	// Round-trip through the text format.
	var sb strings.Builder
	if err := ksa.WriteCorpus(&sb, c); err != nil {
		t.Fatal(err)
	}
	back, err := ksa.ReadCorpus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCalls() != c.NumCalls() {
		t.Fatal("corpus round trip lost calls")
	}

	m := ksa.Machine{Cores: 8, MemGB: 4}
	opts := ksa.VarbenchOptions{Iterations: 3, Warmup: 1, Seed: 3}
	run := func(spec ksa.EnvSpec) *ksa.VarbenchResult {
		return ksa.RunVarbench(spec.Build(ksa.NewEngine(), m, 1), c, opts)
	}
	native := run(ksa.EnvSpec{Kind: ksa.KindNative})
	vms := run(ksa.EnvSpec{Kind: ksa.KindVMs, Units: 8})
	docker := run(ksa.EnvSpec{Kind: ksa.KindContainers, Units: 8})
	for _, r := range []*ksa.VarbenchResult{native, vms, docker} {
		if len(r.Sites) != c.NumCalls() {
			t.Fatalf("%s: wrong site count", r.Env)
		}
	}
}

func TestFacadeApps(t *testing.T) {
	if len(ksa.Apps()) != 8 {
		t.Fatal("expected the 8 tailbench apps")
	}
	if ksa.AppByName("silo") == nil {
		t.Fatal("silo missing")
	}
}

func TestFacadeCluster(t *testing.T) {
	r := ksa.RunCluster(ksa.ClusterConfig{
		App: ksa.AppByName("masstree"), Kind: ksa.KindContainers,
		Nodes: 2, Iterations: 2, RequestsPerIter: 30, Seed: 1,
		NodeMachine: ksa.Machine{Cores: 8, MemGB: 8},
	})
	if r.Runtime <= 0 || len(r.IterTimes) != 2 {
		t.Fatalf("cluster result %+v", r)
	}
}

func TestFacadeExperimentRunnersExist(t *testing.T) {
	if ksa.VMConfigTable().String() == "" {
		t.Fatal("empty Table 1")
	}
	// The heavier runners are exercised in internal/core tests; here we
	// only check they are wired through the facade.
	if ksa.RunTable2 == nil || ksa.RunFigure2 == nil || ksa.RunTable3 == nil ||
		ksa.RunFigure3 == nil || ksa.RunFigure4 == nil {
		t.Fatal("experiment runners not exported")
	}
}
