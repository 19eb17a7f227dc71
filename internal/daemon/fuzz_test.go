package daemon_test

import (
	"encoding/json"
	"testing"

	"ksa/internal/core"
	"ksa/internal/daemon"
	"ksa/internal/platform"
	"ksa/internal/sim"
)

// FuzzJobSpec drives the job-submission boundary with arbitrary JSON:
// Validate never panics, and every sweep spec it accepts builds each of
// its environments on the paper machine — the machine the daemon's sweeps
// run on — without a panic.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"type":"sweep","scale":"quick","envs":["kvm-7"]}`,
		`{"type":"sweep","envs":["native","kvm-8","docker-64","lightvm-16","specialized:8"],"trials":2}`,
		`{"type":"sweep","envs":["docker-0"]}`,
		`{"type":"experiment","exp":"blame","scale":"quick"}`,
		`{"type":"interference","fault":"mixed"}`,
		`{"type":"sweep","envs":["lightvm-128"],"fault":"nope"}`,
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
		envs, err := core.ParseEnvSpecs(spec.Envs)
		if err != nil {
			t.Fatalf("Validate accepted envs that do not parse: %v", err)
		}
		for _, e := range envs {
			e.Build(sim.NewEngine(), platform.PaperMachine, 1)
		}
	})
}
