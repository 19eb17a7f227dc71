package core

import (
	"strings"
	"testing"

	"ksa/internal/platform"
	"ksa/internal/sim"
)

func TestScaleNamed(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
		want Scale
	}{
		{"", 0, DefaultScale()},
		{"default", 0, DefaultScale()},
		{"quick", 0, QuickScale()},
		{"quick", 7, QuickScale()},
	} {
		got, err := ScaleNamed(tc.name, tc.seed)
		if err != nil {
			t.Fatalf("ScaleNamed(%q, %d): %v", tc.name, tc.seed, err)
		}
		if tc.seed != 0 {
			tc.want.Seed = tc.seed
		}
		if got.Seed != tc.want.Seed || got.CorpusPrograms != tc.want.CorpusPrograms || got.Iterations != tc.want.Iterations {
			t.Errorf("ScaleNamed(%q, %d) = seed %d, %d programs, %d iterations; want %d, %d, %d", tc.name, tc.seed,
				got.Seed, got.CorpusPrograms, got.Iterations, tc.want.Seed, tc.want.CorpusPrograms, tc.want.Iterations)
		}
	}
	if _, err := ScaleNamed("huge", 0); err == nil {
		t.Error("ScaleNamed accepted an unknown preset")
	}
}

// TestSweepSpecOptions: the resolver maps a wire spec to the sweep it
// names on the paper machine, and rejects every malformed one.
func TestSweepSpecOptions(t *testing.T) {
	o, err := SweepSpec{Scale: "quick", Seed: 9, Envs: []string{"native", " kvm-8", "specialized:4"},
		Trials: 3, Fault: "mixed"}.Options()
	if err != nil {
		t.Fatal(err)
	}
	var envs []string
	for _, e := range o.Envs {
		envs = append(envs, e.String())
	}
	if got := strings.Join(envs, ","); got != "native,kvm-8,specialized-4" {
		t.Errorf("envs = %s", got)
	}
	if o.Scale.Seed != 9 || o.Scale.CorpusPrograms != QuickScale().CorpusPrograms || o.Trials != 3 ||
		o.Machine != platform.PaperMachine || o.Faults == nil || o.Faults.Name != "mixed" {
		t.Errorf("resolved %+v", o)
	}
	if o, _ := (SweepSpec{Envs: []string{"native"}}).Options(); o.Faults != nil || o.Scale.Seed != DefaultScale().Seed {
		t.Errorf("a clean default spec resolved to faults %v, seed %d", o.Faults, o.Scale.Seed)
	}

	for _, s := range []SweepSpec{
		{},
		{Envs: []string{"native"}, Scale: "huge"},
		{Envs: []string{"vax-3"}},
		{Envs: []string{"kvm-7"}},
		{Envs: []string{"native", "native"}},
		{Envs: []string{"kvm-8", "native", "lightvm-3"}},
		{Envs: []string{"native"}, Trials: -1},
		{Envs: []string{"native"}, Fault: "gremlins"},
		{Envs: []string{"native"}, Trials: MaxSweepCells},
		{Envs: []string{"native"}, Trials: 1 << 40},
		{Envs: []string{"native", "kvm-2"}, Trials: MaxSweepCells / 2},
	} {
		if _, err := s.Options(); err == nil {
			t.Errorf("accepted %+v", s)
		}
	}
}

// TestSweepBoundRejectsOversizedCLIGrids: the bound the CLIs share rejects
// an oversized varbench -trials sweep (one environment) and an oversized
// ksaexp -exp sweep -serial grid (its default -envs list) while resolving
// their flags — before anything is planned, so no corpus is generated and
// no simulation event runs — and admits the largest grid below it.
func TestSweepBoundRejectsOversizedCLIGrids(t *testing.T) {
	ksaexpEnvs := strings.Split("native,kvm-8,docker-64", ",")
	trials := (MaxSweepCells - 1) / len(ksaexpEnvs) // the largest grid below the bound
	ev := sim.TotalExecuted()
	if err := CheckSweepSize(1, MaxSweepCells); err == nil {
		t.Error("varbench: -trials 65536 accepted")
	}
	if err := CheckSweepSize(1, MaxSweepCells-1); err != nil {
		t.Errorf("varbench: -trials 65535 rejected: %v", err)
	}
	if _, err := (SweepSpec{Scale: "quick", Envs: ksaexpEnvs, Trials: trials + 1}).Options(); err == nil {
		t.Errorf("ksaexp: %d envs × %d trials accepted", len(ksaexpEnvs), trials+1)
	}
	if _, err := (SweepSpec{Scale: "quick", Envs: ksaexpEnvs, Trials: trials}).Options(); err != nil {
		t.Errorf("ksaexp: %d envs × %d trials rejected: %v", len(ksaexpEnvs), trials, err)
	}
	if n := sim.TotalExecuted() - ev; n != 0 {
		t.Fatalf("resolving the flags ran %d simulation events", n)
	}
}

// FuzzSweepSpec drives the shared resolver with arbitrary specs: Options
// never panics, and every spec it accepts enumerates fewer than
// MaxSweepCells cells, each of which fits the paper machine.
func FuzzSweepSpec(f *testing.F) {
	f.Add("quick", uint64(0), "native,kvm-8,docker-64", 3, "")
	f.Add("", uint64(7), "kvm-7", 1, "mixed")
	f.Add("default", uint64(1), "native", 65536, "")
	f.Add("quick", uint64(0), "specialized:8,lightvm-16", 32767, "memstorm")
	f.Add("huge", uint64(0), "native,native", -1, "gremlins")
	f.Fuzz(func(t *testing.T, scale string, seed uint64, envs string, trials int, fault string) {
		o, err := SweepSpec{Scale: scale, Seed: seed, Envs: strings.Split(envs, ","), Trials: trials, Fault: fault}.Options()
		if err != nil {
			return
		}
		cells := o.Cells()
		if len(cells) >= MaxSweepCells {
			t.Fatalf("Options accepted a grid of %d cells, limit %d", len(cells), MaxSweepCells)
		}
		for _, c := range cells {
			if err := c.Env.Check(platform.PaperMachine); err != nil {
				t.Fatalf("Options accepted cell %s: %v", c.JobKey, err)
			}
		}
	})
}
