package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// must unwraps a runner's result. Runners fail only on cancellation or an
// invalid fault plan, and these tests use neither, so an error is a bug
// worth a panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// quickOutputs memoizes each table entry's quick-scale output, so the
// digest test and the per-experiment assertions share one run each. The
// package's tests do not run in parallel, so the map needs no lock.
var quickOutputs = map[string]Output{}

// quick runs the named table entry at QuickScale (the "mixed" plan for
// interference) once per test binary and returns its output.
func quick(t *testing.T, name string) Output {
	t.Helper()
	if out, ok := quickOutputs[name]; ok {
		return out
	}
	exp, err := LookupExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.Run(context.Background(), QuickScale(), "")
	if err != nil {
		t.Fatal(err)
	}
	quickOutputs[name] = out
	return out
}

// TestQuickDigests pins every experiment's output: the SHA-256 of its
// quick-scale rendered text and CSV must match testdata/quick_digests.txt.
// A mismatch means an output changed; a table entry without a line, or a
// line without an entry, means the two lists disagree.
func TestQuickDigests(t *testing.T) {
	raw, err := os.ReadFile("testdata/quick_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed digest line %q", line)
		}
		want[f[0]] = f[1:]
	}
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	for _, exp := range Experiments {
		w, ok := want[exp.Name]
		if !ok {
			t.Errorf("%s: no line in testdata/quick_digests.txt", exp.Name)
			continue
		}
		delete(want, exp.Name)
		out := quick(t, exp.Name)
		if got := sum(out.Text); got != w[0] {
			t.Errorf("%s: rendered text sha256 %s, want %s", exp.Name, got, w[0])
		}
		if got := sum(out.CSV); got != w[1] {
			t.Errorf("%s: CSV sha256 %s, want %s", exp.Name, got, w[1])
		}
	}
	for name := range want {
		t.Errorf("%s: digest line for an experiment the table lacks", name)
	}
}

// LookupExperiment finds every entry and names the valid ones on a miss.
func TestLookupExperiment(t *testing.T) {
	for _, exp := range Experiments {
		got, err := LookupExperiment(exp.Name)
		if err != nil || got.Name != exp.Name {
			t.Fatalf("lookup %q: %v", exp.Name, err)
		}
	}
	_, err := LookupExperiment("bogus")
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "table1, table2") {
		t.Fatalf("unknown-name error %v should name the input and list the table", err)
	}
}
