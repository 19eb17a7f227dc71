package daemon_test

import (
	"encoding/json"
	"testing"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/daemon"
	"ksa/internal/platform"
	"ksa/internal/sim"
)

// plannedCells plans a sweep grid over an empty corpus — enough to count
// the cells the daemon would enumerate without generating a real one.
func plannedCells(t *testing.T, envs []string, trials int) int {
	t.Helper()
	specs, err := core.ParseEnvSpecs(envs)
	if err != nil {
		t.Fatalf("Validate accepted envs that do not parse: %v", err)
	}
	p := core.PlanSweep(core.SweepOptions{Envs: specs, Trials: trials, Corpus: &corpus.Corpus{}})
	return len(p.Cells)
}

// FuzzJobSpec drives the job-submission boundary with arbitrary JSON:
// Validate never panics, and every sweep spec it accepts plans fewer than
// core.MaxSweepCells cells and builds each of its environments on the paper
// machine — the machine the daemon's sweeps run on — without a panic.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"type":"sweep","scale":"quick","envs":["kvm-7"]}`,
		`{"type":"sweep","envs":["native","kvm-8","docker-64","lightvm-16","specialized:8"],"trials":2}`,
		`{"type":"sweep","envs":["docker-0"]}`,
		`{"type":"experiment","exp":"blame","scale":"quick"}`,
		`{"type":"experiment","exp":"interference","fault":"mixed"}`,
		`{"type":"sweep","envs":["lightvm-128"],"fault":"nope"}`,
		`{"type":"sweep","envs":["native"],"trials":1099511627776}`,
		`{"type":"sweep","envs":["native","kvm-2"],"trials":32767}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec daemon.JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Validate() != nil || spec.Type != daemon.TypeSweep {
			return
		}
		if n := plannedCells(t, spec.Envs, spec.Trials); n >= core.MaxSweepCells {
			t.Fatalf("Validate accepted a sweep of %d cells, limit %d", n, core.MaxSweepCells)
		}
		envs, _ := core.ParseEnvSpecs(spec.Envs)
		for _, e := range envs {
			e.Build(sim.NewEngine(), platform.PaperMachine, 1)
		}
	})
}

// FuzzCellSpec drives the worker-mode cell boundary the same way: every
// cell spec Validate accepts plans — as the cell endpoint does, trials
// 0 … Trial — fewer than core.MaxSweepCells cells, and builds on the paper
// machine without a panic.
func FuzzCellSpec(f *testing.F) {
	for _, seed := range []string{
		`{"scale":"quick","env":"native","trial":1}`,
		`{"env":"kvm-7"}`,
		`{"env":"native","trial":1099511627776}`,
		`{"env":"specialized:8","trial":65535,"fault":"mixed"}`,
		`{"env":"docker-4","owner":"a\nowner=b","lease_ms":1000}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec daemon.CellSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		if n := plannedCells(t, []string{spec.Env}, spec.Trial+1); n >= core.MaxSweepCells {
			t.Fatalf("Validate accepted trial %d: the cell plans %d cells, limit %d",
				spec.Trial, n, core.MaxSweepCells)
		}
		env, _ := core.ParseEnvSpec(spec.Env)
		env.Build(sim.NewEngine(), platform.PaperMachine, 1)
	})
}
