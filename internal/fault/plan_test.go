package fault

import (
	"sort"
	"strings"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/sim"
)

func TestPresetsValidAndSorted(t *testing.T) {
	names := Presets()
	if len(names) < 4 {
		t.Fatalf("only %d presets", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Presets() not sorted: %v", names)
	}
	for _, n := range names {
		p, ok := Preset(n)
		if !ok {
			t.Fatalf("Preset(%q) missing", n)
		}
		if p.Name != n {
			t.Fatalf("preset %q has Name %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", n, err)
		}
	}
	if _, ok := Preset("no-such-plan"); ok {
		t.Fatal("Preset returned a plan for an unknown name")
	}
}

func TestPresetReturnsCopy(t *testing.T) {
	a, _ := Preset("memstorm")
	a.Injectors[0].Gap = 1
	b, _ := Preset("memstorm")
	if b.Injectors[0].Gap == 1 {
		t.Fatal("mutating a Preset result leaked into the registry")
	}
}

// The presets' signatures are part of every faulted job key and cache key,
// so a change to Encode or to a preset shows here before it silently
// re-keys stored results.
func TestPresetSigsGolden(t *testing.T) {
	want := map[string]string{
		"fsflush":   "fsflush-39624ad3",
		"memstorm":  "memstorm-525ace7b",
		"mixed":     "mixed-e2d57ebf",
		"tickstorm": "tickstorm-d5db2796",
		"tlbstorm":  "tlbstorm-d2ead120",
	}
	if len(Presets()) != len(want) {
		t.Fatalf("presets %v, want the %d pinned here", Presets(), len(want))
	}
	for _, n := range Presets() {
		p, _ := Preset(n)
		if got := p.Sig(); got != want[n] {
			t.Errorf("Preset(%q).Sig() = %q, want %q", n, got, want[n])
		}
	}
}

func TestValidateRejectsMalformedPlans(t *testing.T) {
	ok := Injector{Kind: Jitter, Gap: 1, MinDur: 1, MaxDur: 2, Alpha: 1}
	cases := []struct {
		name string
		injs []Injector
	}{
		{"no injectors", nil},
		{"zero gap", []Injector{{Kind: Jitter, Gap: 0, MinDur: 1, MaxDur: 2, Alpha: 1}}},
		{"min > max", []Injector{{Kind: Jitter, Gap: 1, MinDur: 5, MaxDur: 2, Alpha: 1}}},
		{"alpha 0", []Injector{{Kind: Jitter, Gap: 1, MinDur: 1, MaxDur: 2, Alpha: 0}}},
	}
	for _, c := range cases {
		p := Plan{Name: "a", Injectors: c.injs}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, p)
		}
	}
	if p := (Plan{Name: "a", Injectors: []Injector{ok}}); p.Validate() != nil {
		t.Fatalf("Validate rejected the well-formed plan %+v", p)
	}
}

func TestValidateRejectsWhitespaceNames(t *testing.T) {
	p, _ := Preset("memstorm")
	p.Name = "has space"
	if err := p.Validate(); err == nil {
		t.Fatal("whitespace name accepted")
	}
	p, _ = Preset("memstorm")
	p.Scope = "a=b"
	if err := p.Validate(); err == nil {
		t.Fatal("scope with '=' accepted")
	}
}

func TestSigDistinguishesContent(t *testing.T) {
	a, _ := Preset("memstorm")
	b, _ := Preset("memstorm")
	b.Injectors[0].Gap += sim.Microsecond
	if a.Sig() == b.Sig() {
		t.Fatal("different plans share a signature")
	}
	if !strings.HasPrefix(a.Sig(), "memstorm-") {
		t.Fatalf("Sig %q does not lead with the plan name", a.Sig())
	}
	c, _ := Preset("memstorm")
	if a.Sig() != c.Sig() {
		t.Fatal("identical plans got different signatures")
	}
}

func TestClassLocks(t *testing.T) {
	if len(ClassAll.Locks()) != len(ClassMem.Locks())+len(ClassFS.Locks())+len(ClassProc.Locks())+len(ClassIPC.Locks()) {
		t.Fatal("ClassAll is not the union of the other classes")
	}
	seen := map[kernel.LockID]bool{}
	for _, id := range ClassAll.Locks() {
		if seen[id] {
			t.Fatalf("ClassAll repeats lock %d", id)
		}
		seen[id] = true
	}
	for c := ClassMem; c < numClasses; c++ {
		if len(c.Locks()) == 0 {
			t.Fatalf("class %v targets no locks", c)
		}
	}
}
