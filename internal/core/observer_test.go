package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/resultcache/codec"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// TestObserverDigests pins what tracing and contention recording report,
// alone and together, for every environment kind, clean and under the
// mixed interference plan: lockstat, blame records, task and outlier
// counts, the isolation score, families and matrices, the site samples
// and every kernel's Stats. Each combination's SHA-256 must match
// testdata/observer_digests.txt, so a change to how the kernel reports to
// its observers that alters any of these fails here.
func TestObserverDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/observer_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed digest line %q", line)
		}
		want[f[0]] = f[1]
	}

	m := platform.Machine{Cores: 8, MemGB: 8}
	sc := QuickScale()
	c, _ := sc.GenerateCorpus()
	prof := specialize.ProfileCorpus(c, syscalls.Default(), 7, 0)
	mixed, _ := fault.Preset("mixed")
	envs := []EnvSpec{
		{Kind: platform.KindNative},
		{Kind: platform.KindVMs, Units: 8},
		{Kind: platform.KindContainers, Units: 4},
		{Kind: platform.KindLightVMs, Units: 4},
		{Kind: platform.KindSpecialized, Units: 8, Profile: prof},
	}
	observers := []struct {
		name              string
		trace, contention bool
	}{{"trace", true, false}, {"contention", false, true}, {"both", true, true}}

	for _, env := range envs {
		for _, plan := range []*fault.Plan{nil, &mixed} {
			for _, obs := range observers {
				name := fmt.Sprintf("%s/%s/%s", env, planName(plan), obs.name)
				opts := varbench.Options{Iterations: 4, Warmup: 1, Seed: 11, Faults: plan,
					Contention: obs.contention}
				if obs.trace {
					opts.Trace = &trace.Options{Threshold: 200 * sim.Microsecond}
				}
				e := env.Build(sim.NewEngine(), m, opts.Seed)
				res := varbench.Run(e, c, opts)
				h := sha256.New()
				h.Write(codec.EncodeResult(res))
				for _, k := range e.Kernels {
					fmt.Fprintf(h, "stats %s %+v\n", k.Name(), k.Stats())
				}
				for _, tr := range res.Tracers {
					fmt.Fprintf(h, "tracer %d tasks %d outliers %d dropped\n",
						tr.Tasks(), tr.Outliers(), tr.RecordDrops())
					for _, ls := range tr.LockStats() {
						fmt.Fprintf(h, "lock %+v\n", *ls)
					}
					for _, r := range tr.Records() {
						fmt.Fprintf(h, "record %+v\n", r)
					}
				}
				if rec := res.Isolation; rec != nil {
					fmt.Fprintf(h, "isolation %d tasks %+v\n", rec.Tasks(), rec.ComputeScore())
					for _, fa := range rec.Families() {
						fmt.Fprintf(h, "family %+v %v\n", fa, rec.Matrix(fa.Family))
					}
				}
				got := hex.EncodeToString(h.Sum(nil))
				if w, ok := want[name]; !ok {
					t.Errorf("%s: no line in testdata/observer_digests.txt (got %s)", name, got)
				} else if got != w {
					t.Errorf("%s: sha256 %s, want %s", name, got, w)
				}
				delete(want, name)
			}
		}
	}
	for name := range want {
		t.Errorf("%s: digest line for a combination the test does not run", name)
	}
}

func planName(p *fault.Plan) string {
	if p == nil {
		return "clean"
	}
	return p.Name
}
