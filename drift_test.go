package ksa_test

import (
	"os"
	"strings"
	"testing"

	"ksa"
)

// ksaexp, the daemon's validator, and the facade all read the experiment
// table (ksa.Experiments), and internal/core's digest test pins each
// entry's output. What the compiler cannot check is the prose: every
// experiment must be documented in the README, and the daemon must accept
// every entry and nothing else.
func TestExperimentSurfacesStayInSync(t *testing.T) {
	if len(ksa.Experiments) == 0 {
		t.Fatal("no experiments registered")
	}
	// Root-package tests run with the repo root as cwd.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range ksa.Experiments {
		// The experiment tour and the daemon job-type listing mention it.
		if !strings.Contains(string(readme), exp.Name) {
			t.Errorf("experiment %q missing from README.md", exp.Name)
		}
		// And the daemon's validator accepts it.
		spec := ksa.JobSpec{Type: "experiment", Exp: exp.Name}
		if err := spec.Validate(); err != nil {
			t.Errorf("daemon rejects experiment %q: %v", exp.Name, err)
		}
	}

	// The validator must still reject what the table doesn't list.
	bogus := ksa.JobSpec{Type: "experiment", Exp: "no-such-experiment"}
	if err := bogus.Validate(); err == nil {
		t.Error("daemon accepted an unregistered experiment")
	}
}

// Every environment-spec string form the daemon documents must parse, and
// the specialized orchestration alias must normalize to the canonical form.
func TestEnvSpecSurfacesStayInSync(t *testing.T) {
	spec := ksa.JobSpec{Type: "sweep",
		Envs: []string{"native", "kvm-8", "docker-64", "lightvm-16", "specialized-8"}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("documented env specs rejected: %v", err)
	}
	alias := ksa.JobSpec{Type: "sweep", Envs: []string{"specialized:8"}}
	if err := alias.Validate(); err != nil {
		t.Fatalf("specialized:N alias rejected: %v", err)
	}
	// The alias and the canonical form are the same spec, so listing both
	// is a duplicate.
	dup := ksa.JobSpec{Type: "sweep", Envs: []string{"specialized-8", "specialized:8"}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate specialized spec (alias + canonical) accepted")
	}
}
