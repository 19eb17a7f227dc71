// Service-facing helpers: the pieces every boundary that takes requests
// from outside (ksad's HTTP bodies, the distributed coordinator, the CLI
// flags) needs from the experiment layer — resolving a sweep named on the
// wire, and rendering and fingerprinting sweep results.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/resultcache/codec"
)

// MaxSweepCells bounds every sweep grid a request may name: its trials,
// and its envs × trials, stay below it. PlanSweep lists every cell up
// front, so an unbounded count would let one request exhaust memory.
const MaxSweepCells = 1 << 16

// SweepSpec is the wire form of a sweep grid, as HTTP bodies and CLI
// flags carry it. Every boundary that accepts a sweep from outside
// resolves it through Options, so they all accept the same grids and
// resolve them to the same cells.
type SweepSpec struct {
	Scale  string   // scale preset (ScaleNamed)
	Seed   uint64   // root-seed override when nonzero
	Envs   []string // environment specs (ParseEnvSpec): "native", "kvm-8", …
	Trials int      // trials per environment (0 = 1)
	Fault  string   // interference preset (FaultNamed; "" = clean)
}

// Options resolves the spec to the sweep it names on the paper machine.
// It rejects an unknown scale or fault preset, a missing, malformed or
// duplicate environment, one that does not fit the machine, negative
// trials, and a grid that reaches MaxSweepCells — all before anything is
// planned.
func (s SweepSpec) Options() (SweepOptions, error) {
	sc, err := ScaleNamed(s.Scale, s.Seed)
	if err != nil {
		return SweepOptions{}, err
	}
	if len(s.Envs) == 0 {
		return SweepOptions{}, errors.New("a sweep needs at least one environment")
	}
	envs, err := ParseEnvSpecs(s.Envs)
	if err != nil {
		return SweepOptions{}, err
	}
	for _, e := range envs {
		if err := e.Check(platform.PaperMachine); err != nil {
			return SweepOptions{}, err
		}
	}
	if err := CheckSweepSize(len(envs), s.Trials); err != nil {
		return SweepOptions{}, err
	}
	plan, err := FaultNamed(s.Fault)
	if err != nil {
		return SweepOptions{}, err
	}
	return SweepOptions{Scale: sc, Machine: platform.PaperMachine, Envs: envs,
		Trials: s.Trials, Faults: plan}, nil
}

// CheckSweepSize rejects a negative trial count and a grid whose trials,
// or envs × trials, reach MaxSweepCells (trials of 0 count as 1).
func CheckSweepSize(envs, trials int) error {
	if trials < 0 {
		return fmt.Errorf("negative trials %d", trials)
	}
	if t := max(trials, 1); t >= MaxSweepCells || envs*t >= MaxSweepCells {
		return fmt.Errorf("%d envs × %d trials reach the %d-cell sweep limit", envs, t, MaxSweepCells)
	}
	return nil
}

// FaultNamed resolves an interference preset by name: nil for "", the
// preset's plan otherwise.
func FaultNamed(name string) (*fault.Plan, error) {
	if name == "" {
		return nil, nil
	}
	plan, ok := fault.Preset(name)
	if !ok {
		return nil, fmt.Errorf("unknown fault preset %q (have %s)", name, strings.Join(fault.Presets(), ", "))
	}
	return &plan, nil
}

// ParseEnvSpec parses the canonical environment-spec string form —
// "native", "kvm-8", "docker-64", "lightvm-16", "specialized-8" — the
// inverse of EnvSpec.String. The MultiK-style orchestration form
// "specialized:8" is accepted as an alias. Unit counts must be positive;
// native takes none.
func ParseEnvSpec(s string) (EnvSpec, error) {
	// "specialized:N" is the per-tenant orchestration spelling; normalize
	// it to the canonical dash form before the generic cut.
	if units, ok := strings.CutPrefix(s, "specialized:"); ok {
		s = "specialized-" + units
	}
	name, units, hasUnits := strings.Cut(s, "-")
	kind, ok := platform.ParseKind(name)
	if !ok || (kind == platform.KindNative && hasUnits) {
		return EnvSpec{}, fmt.Errorf("unknown environment %q (want %s)", s, envForms())
	}
	if kind == platform.KindNative {
		return EnvSpec{Kind: kind}, nil
	}
	if !hasUnits {
		return EnvSpec{}, fmt.Errorf("environment %q needs a unit count (e.g. %q)", s, s+"-8")
	}
	n, err := strconv.Atoi(units)
	if err != nil || n <= 0 {
		return EnvSpec{}, fmt.Errorf("environment %q: bad unit count %q", s, units)
	}
	return EnvSpec{Kind: kind, Units: n}, nil
}

// envForms lists the spec forms ParseEnvSpec accepts, in kind order:
// "native, kvm-N, ..., or specialized-N".
func envForms() string {
	var forms []string
	for _, k := range platform.Kinds() {
		if k == platform.KindNative {
			forms = append(forms, k.String())
		} else {
			forms = append(forms, k.String()+"-N")
		}
	}
	return strings.Join(forms[:len(forms)-1], ", ") + ", or " + forms[len(forms)-1]
}

// ParseEnvSpecs parses a list of spec strings, rejecting duplicates (two
// identical specs would collide on job keys).
func ParseEnvSpecs(specs []string) ([]EnvSpec, error) {
	seen := map[string]bool{}
	out := make([]EnvSpec, 0, len(specs))
	for _, s := range specs {
		e, err := ParseEnvSpec(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if seen[e.String()] {
			return nil, fmt.Errorf("duplicate environment %q", e)
		}
		seen[e.String()] = true
		out = append(out, e)
	}
	return out, nil
}

// Render formats the sweep as one pooled-latency summary row per cell, in
// job-key order. The rendering is canonical: two bit-identical sweeps
// render to identical bytes, so remote clients can diff it against a
// local run.
func (r SweepResult) Render() string {
	t := &report.Table{
		Title:   fmt.Sprintf("Sweep: %d cell(s), pooled call latency (µs)", len(r.Runs)),
		Headers: []string{"cell", "seed", "sites", "p50", "p99", "max"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, run := range r.Runs {
		if run.Res == nil {
			continue
		}
		pool := pooledLatencies(run.Res)
		t.AddRow(run.Key(), fmt.Sprintf("%#016x", run.Seed),
			fmt.Sprintf("%d", len(run.Res.Sites)),
			f(pool.Median()), f(pool.P99()), f(pool.Max()))
	}
	return t.String()
}

// Digest fingerprints the sweep's complete numeric content: the SHA-256
// over every cell's canonical binary encoding, in job-key order. Two
// sweeps are byte-identical iff their digests match — this is the value
// the daemon reports so N concurrent clients (or a remote and a local
// run) can assert bit-identity without shipping payloads around. Every
// cell is encoded into one buffer sized to the largest cell.
func (r SweepResult) Digest() string {
	size := 0
	for _, run := range r.Runs {
		if run.Res != nil {
			size = max(size, codec.ResultLen(run.Res))
		}
	}
	buf := make([]byte, 0, size)
	h := sha256.New()
	for _, run := range r.Runs {
		fmt.Fprintf(h, "cell=%s seed=%#016x\n", run.Key(), run.Seed)
		if run.Res != nil {
			buf = codec.AppendResult(buf[:0], run.Res)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
