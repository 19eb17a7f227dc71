package core

import (
	"context"
	"strings"
	"testing"

	"ksa/internal/platform"
	"ksa/internal/resultcache"
)

// The canonical string forms round-trip, the orchestration alias parses,
// and malformed specs are rejected.
func TestParseEnvSpecTable(t *testing.T) {
	good := []struct {
		in   string
		want EnvSpec
		str  string // canonical String(), "" = same as in
	}{
		{in: "native", want: EnvSpec{Kind: platform.KindNative}},
		{in: "kvm-8", want: EnvSpec{Kind: platform.KindVMs, Units: 8}},
		{in: "docker-64", want: EnvSpec{Kind: platform.KindContainers, Units: 64}},
		{in: "lightvm-16", want: EnvSpec{Kind: platform.KindLightVMs, Units: 16}},
		{in: "specialized-8", want: EnvSpec{Kind: platform.KindSpecialized, Units: 8}},
		{in: "specialized:8", want: EnvSpec{Kind: platform.KindSpecialized, Units: 8},
			str: "specialized-8"},
		{in: "specialized-64", want: EnvSpec{Kind: platform.KindSpecialized, Units: 64}},
	}
	for _, tc := range good {
		got, err := ParseEnvSpec(tc.in)
		if err != nil {
			t.Errorf("ParseEnvSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseEnvSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		str := tc.str
		if str == "" {
			str = tc.in
		}
		if got.String() != str {
			t.Errorf("ParseEnvSpec(%q).String() = %q, want %q", tc.in, got.String(), str)
		}
	}
	bad := []string{"", "specialized", "specialized-", "specialized-0",
		"specialized:-3", "specialized:x", "xen-4", "kvm", "native-2"}
	for _, in := range bad {
		if got, err := ParseEnvSpec(in); err == nil {
			t.Errorf("ParseEnvSpec(%q) = %+v, want error", in, got)
		}
	}
}

func specializeScale(parallel int) Scale {
	sc := QuickScale()
	sc.CorpusPrograms = 8
	sc.Iterations = 3
	sc.Parallel = parallel
	return sc
}

// The experiment's rendered output is byte-identical at any worker count,
// the reduction is strict, and the soundness oracle holds.
func TestSpecializeBitIdentityAndInvariants(t *testing.T) {
	serial := must(RunSpecialize(context.Background(), specializeScale(1)))
	par := must(RunSpecialize(context.Background(), specializeScale(4)))
	if s, p := serial.Render(), par.Render(); s != p {
		t.Fatalf("serial and 4-worker renders differ:\n%s\nvs\n%s", s, p)
	}
	if !serial.Sound || serial.MeasuredFaults != 0 {
		t.Fatalf("soundness oracle failed: sound=%t faults=%d", serial.Sound, serial.MeasuredFaults)
	}
	if serial.MappedSyscalls >= serial.TotalSyscalls {
		t.Fatalf("no syscall reduction: %d/%d", serial.MappedSyscalls, serial.TotalSyscalls)
	}
	if serial.RetainedLocks >= serial.TotalLocks {
		t.Fatalf("no lock reduction: %d/%d", serial.RetainedLocks, serial.TotalLocks)
	}
	if serial.ProbeSyscall == "" || serial.ProbeFaults == 0 {
		t.Fatalf("out-of-profile probe did not fault: %q %d", serial.ProbeSyscall, serial.ProbeFaults)
	}
	if len(serial.Rows) != 4 {
		t.Fatalf("want 4 environment rows, got %d", len(serial.Rows))
	}
	if !strings.HasPrefix(serial.Rows[3].Env, "spec-") {
		t.Fatalf("last row should be the specialized environment, got %q", serial.Rows[3].Env)
	}
}

// A cached rerun of the experiment is served entirely from the store and
// renders byte-identically; specialized cells really address distinct
// entries (4 cells total, one per environment).
func TestSpecializeCacheRerun(t *testing.T) {
	st, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := specializeScale(2)
	sc.Cache = st
	first := must(RunSpecialize(context.Background(), sc))
	miss := st.Stats()
	if miss.Misses != 4 || miss.Hits != 0 {
		t.Fatalf("first run: %d misses %d hits, want 4/0", miss.Misses, miss.Hits)
	}
	second := must(RunSpecialize(context.Background(), sc))
	d := st.Stats().Sub(miss)
	if d.Misses != 0 || d.Hits != 4 {
		t.Fatalf("rerun: %d misses %d hits, want 0/4", d.Misses, d.Hits)
	}
	if first.Render() != second.Render() {
		t.Fatal("cached rerun rendered differently")
	}
}

// A sweep over "specialized-N" works end-to-end: PlanSweep attaches the
// corpus profile without mutating the caller's Envs slice, and the
// specialized cells' cache keys carry the profile signature so they can
// never collide with full-surface entries.
func TestSweepAttachesProfile(t *testing.T) {
	sc := QuickScale()
	sc.CorpusPrograms = 8
	sc.Iterations = 3
	st, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc.Cache = st
	envs := []EnvSpec{
		{Kind: platform.KindNative},
		{Kind: platform.KindSpecialized, Units: 4},
	}
	o := SweepOptions{Scale: sc, Machine: platform.Machine{Cores: 8, MemGB: 4}, Envs: envs}
	p := PlanSweep(o)
	if envs[1].Profile != nil {
		t.Fatal("PlanSweep mutated the caller's Envs slice")
	}
	var specCell *SweepCell
	for i := range p.Cells {
		if p.Cells[i].Env.Kind == platform.KindSpecialized {
			specCell = &p.Cells[i]
		}
	}
	if specCell == nil || specCell.Env.Profile == nil {
		t.Fatal("planned specialized cell carries no profile")
	}
	key := p.CacheKey(*specCell)
	if !strings.Contains(key.Env, "/prof="+specCell.Env.Profile.Sig()) {
		t.Fatalf("specialized cache key %q lacks the profile signature", key.Env)
	}

	res := must(RunSweep(context.Background(), o))
	if len(res.Runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(res.Runs))
	}
	spec := res.Runs[1]
	if spec.Res == nil || len(spec.Res.Sites) == 0 {
		t.Fatal("specialized cell produced no sites")
	}
	if spec.Res.Env != "spec-4x2" {
		t.Fatalf("specialized cell env = %q, want spec-4x2", spec.Res.Env)
	}
}
