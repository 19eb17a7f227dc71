package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/platform"
)

// Output is one experiment run's product: the rendered text (what ksaexp
// prints and a ksad job returns), the CSV rows ksaexp's -csv writes
// (empty when the experiment has none), and the typed result for callers
// that inspect it.
type Output struct {
	Text   string
	CSV    string
	Result any
}

// Experiment is one entry of the experiment table.
type Experiment struct {
	// Name selects the experiment: ksaexp -exp, and JobSpec.Exp on ksad.
	Name string
	// InAll reports whether "-exp all" runs it: the paper's own tables and
	// figures do, the extensions run only when named.
	InAll bool
	// Run executes the experiment at sc. faultName selects the
	// interference preset ("" = "mixed"); every other experiment ignores
	// it. Cancellation follows the typed runners' contract.
	Run func(ctx context.Context, sc Scale, faultName string) (Output, error)
}

// Experiments is the experiment table in canonical order — the order
// ksaexp runs a multi-experiment selection in. ksaexp, ksad and the ksa
// facade all dispatch through it. Adding an experiment is one entry here
// plus its line in testdata/quick_digests.txt.
var Experiments = []Experiment{
	{Name: "table1", InAll: true, Run: func(context.Context, Scale, string) (Output, error) {
		t := VMConfigTable()
		return Output{Text: t.String(), Result: t}, nil
	}},
	typed("table2", true, RunTable2),
	typed("fig2", true, RunFigure2),
	typed("table3", true, RunTable3),
	typed("fig3", true, RunFigure3),
	typed("fig4", true, RunFigure4),
	typed("lightvm", false, RunLightVMExtension),
	typed("ablation", false, RunAblation),
	{Name: "interference", Run: func(ctx context.Context, sc Scale, faultName string) (Output, error) {
		if faultName == "" {
			faultName = "mixed"
		}
		plan, err := FaultNamed(faultName)
		if err != nil {
			return Output{}, err
		}
		return output(RunInterference(ctx, sc, *plan))
	}},
	typed("density", false, RunDensity),
	typed("specialize", false, RunSpecialize),
	typed("isolation", false, RunIsolation),
	typed("blame", false, func(ctx context.Context, sc Scale) (BlameResult, error) {
		return RunBlame(ctx, sc, EnvSpec{Kind: platform.KindNative}, 0)
	}),
}

// LookupExperiment returns the named table entry, or an error that lists
// the valid names.
func LookupExperiment(name string) (Experiment, error) {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
		names[i] = e.Name
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (want one of %s)",
		name, strings.Join(names, ", "))
}

// rendered is what every typed experiment result provides. Results with
// rows worth plotting also have a CSV() string method.
type rendered interface{ Render() string }

// typed adapts a typed runner to a table entry.
func typed[R rendered](name string, inAll bool, run func(context.Context, Scale) (R, error)) Experiment {
	return Experiment{Name: name, InAll: inAll, Run: func(ctx context.Context, sc Scale, _ string) (Output, error) {
		return output(run(ctx, sc))
	}}
}

// output renders a typed result, or passes its runner's error through.
func output[R rendered](r R, err error) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	out := Output{Text: r.Render(), Result: r}
	if c, ok := any(r).(interface{ CSV() string }); ok {
		out.CSV = c.CSV()
	}
	return out, nil
}
