package core

import (
	"context"
	"fmt"
	"strings"

	"ksa/internal/corpus"
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/report"
	"ksa/internal/runner"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// ---------------------------------------------------------------------------
// Extension: profile-guided kernel specialization (KASR/MultiK-style)

// SpecializeEnvRow is one environment's pooled and per-category latency
// summary in the specialization comparison.
type SpecializeEnvRow struct {
	Env    string
	P50    float64 // µs
	P99    float64 // µs
	Max    float64 // µs
	CatP99 []float64
}

// SpecializeResult is the specialization experiment's complete output: the
// generated reduction's shape, the soundness and fault-detectability
// evidence, and the latency comparison of specialized per-tenant kernels
// against the full-surface environments.
type SpecializeResult struct {
	CorpusCalls int
	// ProfileSig identifies the generating profile (it also joins the
	// specialized cells' cache keys).
	ProfileSig string

	// The reduction's shape: strictly fewer mapped syscalls and retained
	// lock slabs than the full surface, plus the derived scaling knobs.
	// Families count distinct trace names (sharded families collapse to
	// one) — the granularity profiles observe locks at.
	MappedSyscalls, TotalSyscalls   int
	RetainedLocks, TotalLocks       int
	RetainedFamilies, TotalFamilies int
	HousekeepingScale, MemScale     float64

	// Soundness oracle: the profiled corpus replayed on the specialized
	// kernel must produce a semantic trace bit-identical to the full
	// kernel's (Sound), with zero in-profile faults (MeasuredFaults).
	FullDigest, SpecDigest string
	Sound                  bool
	MeasuredFaults         uint64

	// Fault detectability: an out-of-profile probe syscall dispatched on
	// the specialized kernel must fault (ProbeFaults > 0), never silently
	// execute. Empty ProbeSyscall means the profile covered the whole
	// table and no probe existed.
	ProbeSyscall string
	ProbeFaults  uint64

	Categories []string
	Rows       []SpecializeEnvRow
}

// RunSpecialize runs the specialization experiment: profile the corpus,
// generate the reduced kernel, prove the reduction sound and its faults
// detectable, then compare 64 specialized per-tenant kernels against
// native, 64 KVM VMs, and 64 containers on the paper machine.
func RunSpecialize(ctx context.Context, sc Scale) (SpecializeResult, error) {
	c, _ := sc.GenerateCorpus()
	digest := sc.corpusDigest(c)
	tab := syscalls.Default()

	// Phase 1+2: profile and generate (sweep cells over "specialized-N"
	// deploy the same kernels and share their cache entries).
	prof := sc.profile(c)
	red := specialize.Specialize(prof, tab)
	res := SpecializeResult{
		CorpusCalls:       c.NumCalls(),
		ProfileSig:        prof.Sig(),
		MappedSyscalls:    red.MappedSyscalls,
		TotalSyscalls:     tab.Len(),
		RetainedLocks:     red.RetainedLocks,
		TotalLocks:        kernel.NumLocks(),
		RetainedFamilies:  len(prof.Locks),
		TotalFamilies:     len(kernel.LockTraceNames()),
		HousekeepingScale: red.HousekeepingScale,
		MemScale:          red.MemScale,
	}

	// Soundness oracle: the profiled corpus, replayed sequentially on a
	// full-surface kernel and on the specialized kernel, must produce
	// bit-identical semantic traces with zero faults.
	oracleSeed := runner.DeriveSeed(sc.Seed, "specialize/oracle")
	full := specialize.ReplayDigest(c, tab, oracleSeed, nil)
	spec := specialize.ReplayDigest(c, tab, oracleSeed, red)
	res.FullDigest, res.SpecDigest = full.Digest, spec.Digest
	res.Sound = full.Digest == spec.Digest
	res.MeasuredFaults = spec.Stats.UnmappedCalls

	// Fault detectability: dispatch the first out-of-profile syscall on
	// the specialized kernel and require the ENOSYS fault path to fire.
	for _, s := range tab.All() {
		if !red.SyscallMapped(uint16(s.ID())) {
			res.ProbeSyscall = s.Name
			probe := probeCorpus(s.ID())
			rep := specialize.ReplayDigest(probe, tab, oracleSeed, red)
			res.ProbeFaults = rep.Faults
			break
		}
	}

	// Phase 3: MultiK-style orchestration — 64 specialized per-tenant
	// kernels against the paper's three full-surface environments. The
	// specialized spec carries the profile so cachedCell keys it by
	// profile signature.
	envs := []EnvSpec{
		{Kind: platform.KindNative},
		{Kind: platform.KindVMs, Units: 64},
		{Kind: platform.KindContainers, Units: 64},
		{Kind: platform.KindSpecialized, Units: 64, Profile: prof},
	}
	runs, _, err := mapCells(ctx, sc, len(envs), func(i int) *varbench.Result {
		res, _ := sc.cachedCell(envs[i], platform.PaperMachine, c, digest, sc.vbOptions())
		return res
	})
	if err != nil {
		return res, err
	}
	for _, cn := range syscalls.CategoryNames {
		res.Categories = append(res.Categories, cn.Name)
	}
	for _, r := range runs {
		pool := pooledLatencies(r)
		row := SpecializeEnvRow{Env: r.Env, P50: pool.Median(), P99: pool.P99(), Max: pool.Max()}
		for _, cn := range syscalls.CategoryNames {
			s := r.CategoryP99s(cn.Cat, nil)
			p99 := 0.0
			if s.Len() > 0 {
				p99 = s.P99()
			}
			row.CatP99 = append(row.CatP99, p99)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// probeCorpus builds the single-call corpus of one out-of-profile syscall.
func probeCorpus(id syscalls.ID) *corpus.Corpus {
	c := &corpus.Corpus{}
	c.Add(&corpus.Program{Calls: []corpus.Call{{Syscall: id}}})
	return c
}

// Render formats the experiment: the reduction's shape and proofs as
// grep-able lines, then the latency comparison tables.
func (r SpecializeResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: profile-guided kernel specialization (KASR profiling + MultiK per-tenant kernels)\n\n")
	fmt.Fprintf(&sb, "profile sig %s (%d corpus calls)\n", r.ProfileSig, r.CorpusCalls)
	fmt.Fprintf(&sb, "mapped syscalls %d/%d\n", r.MappedSyscalls, r.TotalSyscalls)
	fmt.Fprintf(&sb, "retained lock slabs %d/%d (families %d/%d)\n",
		r.RetainedLocks, r.TotalLocks, r.RetainedFamilies, r.TotalFamilies)
	fmt.Fprintf(&sb, "housekeeping scale %.3f, mem scale %.3f\n", r.HousekeepingScale, r.MemScale)
	fmt.Fprintf(&sb, "soundness bit-identical %t (full %.12s spec %.12s), in-profile faults %d\n",
		r.Sound, r.FullDigest, r.SpecDigest, r.MeasuredFaults)
	if r.ProbeSyscall != "" {
		fmt.Fprintf(&sb, "out-of-profile probe %s faults %d\n", r.ProbeSyscall, r.ProbeFaults)
	} else {
		sb.WriteString("out-of-profile probe none (profile covers the whole table)\n")
	}
	sb.WriteByte('\n')

	t := &report.Table{
		Title:   "Pooled call latency (µs): specialized per-tenant kernels vs full-surface environments",
		Headers: []string{"environment", "p50", "p99", "max"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for _, row := range r.Rows {
		t.AddRow(row.Env, f(row.P50), f(row.P99), f(row.Max))
	}
	sb.WriteString(t.String())
	sb.WriteByte('\n')

	ct := &report.Table{
		Title:   "Per-category call-site p99 of p99s (µs)",
		Headers: []string{"environment"},
	}
	ct.Headers = append(ct.Headers, r.Categories...)
	for _, row := range r.Rows {
		cells := []string{row.Env}
		for _, v := range row.CatP99 {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		ct.AddRow(cells...)
	}
	sb.WriteString(ct.String())
	return sb.String()
}

// CSV renders the comparison as machine-readable rows.
func (r SpecializeResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("env,p50_us,p99_us,max_us")
	for _, cn := range r.Categories {
		sb.WriteString(",p99_" + cn + "_us")
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s,%.3f,%.3f,%.3f", row.Env, row.P50, row.P99, row.Max)
		for _, v := range row.CatP99 {
			fmt.Fprintf(&sb, ",%.3f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
