package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"ksa/internal/resultcache"
)

const mib = 1 << 20

// endToEnd computes the end-to-end metrics of a timed phase. fail_ratio is
// carried by the result line's attempted and failed counts; op_ms_p90 is
// left out when fewer than minTail ops lie beyond it.
func endToEnd(p phase, setups []float64) map[string]metric {
	n := float64(len(p.latMs))
	lat := sortedCopy(p.latMs)
	m := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"ops_per_s":         {n / p.wallS, "1/s"},
		"op_ms_p50":         {quantile(lat, 0.5), "ms"},
		"alloc_mib_per_op":  {float64(p.allocB) / mib / n, "MiB"},
		"heap_live_p90_mib": {quantile(sortedCopy(p.liveMiB), 0.9), "MiB"},
	}
	if v, ok := tailQuantile(lat, 0.9); ok {
		m["op_ms_p90"] = metric{v, "ms"}
	}
	return m
}

// writeEndToEnd prints the seven end-to-end metrics with their units.
func writeEndToEnd(w io.Writer, m map[string]metric, p phase, res result) {
	for _, name := range []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "alloc_mib_per_op", "heap_live_p90_mib"} {
		if v, ok := m[name]; ok {
			fmt.Fprintf(w, "%-20s %14.6g %s\n", name, v.Value, v.Unit)
		} else {
			fmt.Fprintf(w, "%-20s %14s (fewer than %d of %d ops beyond it)\n", name, "-", minTail, len(p.latMs))
		}
	}
	fmt.Fprintf(w, "%-20s %14.4f (%d failed of %d attempted)\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
}

// runDigest folds the per-op output digests, in sequence order, into the
// run's output digest.
func runDigest(ops [][32]byte) string {
	h := sha256.New()
	for _, d := range ops {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares digest with the committed digest for key, if any.
func checkDigest(key, digest string) (ok bool, note string, err error) {
	var committed map[string]string
	if err := json.Unmarshal(digestsJSON, &committed); err != nil {
		return false, "", fmt.Errorf("digests.json: %w", err)
	}
	want, found := committed[key]
	switch {
	case !found:
		return true, "no committed digest for this seed and op count", nil
	case want != digest:
		return false, "DIFFERS from the committed " + want, nil
	}
	return true, "matches the committed digest", nil
}

// storeStats snapshots the result store of a workload that has one.
func storeStats(w workload) resultcache.Stats {
	if s, ok := w.(interface{ store() *resultcache.Store }); ok && s.store() != nil {
		return s.store().Stats()
	}
	return resultcache.Stats{}
}

// tracedPass repeats the timed ops [from, total) traced and returns the
// per-layer metrics and the number of failed traced ops. A traced op whose
// output digest differs from the untraced op's counts as failed. st is the
// store's counter delta over the untraced timed phase.
func tracedPass(cfg config, w workload, from, total int, untraced phase, st resultcache.Stats, out io.Writer) (map[string]metric, int, error) {
	tr := newTracer()
	if err := w.traceSetup(tr); err != nil {
		return nil, 0, fmt.Errorf("traced set-up: %w", err)
	}
	tp := runOps(from, total, func(i int) (check, error) {
		tr.op = i
		return w.tracedOp(i, tr)
	})
	failed := tp.failed
	for k, d := range tp.digests {
		if d != ([32]byte{}) && untraced.digests[k] != ([32]byte{}) && d != untraced.digests[k] {
			failed++
			fmt.Fprintf(out, "traced op %d: output differs from the untraced op's\n", from+k)
		}
	}
	ops := total - from
	layers := layerMetrics(tr, ops, st)

	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer split, %s seed=%d, %d traced ops\n", cfg.workload, cfg.seed, ops)
	writeLayerTable(&sb, tr.spans, ops)
	traced := median(opDurations(tr.spans))
	base := median(untraced.latMs)
	fmt.Fprintf(&sb, "tracing overhead: traced op_ms_p50 %.3f - untraced op_ms_p50 %.3f = %+.3f ms (%+.1f%%)\n",
		traced, base, traced-base, 100*(traced-base)/base)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-34s %16.6f %s\n", n, layers[n].Value, layers[n].Unit)
	}
	fmt.Fprint(out, sb.String())
	dir := filepath.Join(cfg.report, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeReport(dir, tr.spans, sb.String()); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(out, "report written to %s\n", dir)
	return layers, failed, nil
}

// layerMetrics derives the per-layer metrics from the traced pass's spans
// and counters and the untraced phase's store counters. A layer the
// workload never calls reads 0.
func layerMetrics(tr *tracer, ops int, st resultcache.Stats) map[string]metric {
	n := float64(ops)
	opRows := rowsByName(layerRows(tr.spans, false))
	setupRows := rowsByName(layerRows(tr.spans, true))
	msPerOp := func(name string) float64 { return float64(opRows[name].selfNs) / 1e6 / n }
	usPerCall := func(name string) float64 {
		r := opRows[name]
		if r.calls == 0 {
			return 0
		}
		return float64(r.selfNs) / 1e3 / float64(r.calls)
	}
	// opOrSetupMs reads a layer per op where the ops call it and per
	// set-up where only the set-up does.
	opOrSetupMs := func(name string) float64 {
		if opRows[name].calls > 0 {
			return msPerOp(name)
		}
		return float64(setupRows[name].selfNs) / 1e6
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := tr.counts
	simNs := float64(opRows["varbench.run"].selfNs + opRows["density.run"].selfNs)
	var jobMs, replayMs float64
	for _, s := range tr.spans {
		switch {
		case s.Name == "daemon.job":
			jobMs += float64(s.dur()) / 1e6
		case s.Name == "replay" && s.Parent < 0:
			replayMs += float64(s.dur()) / 1e6
		}
	}
	kib := func(b int64) float64 { return float64(b) / 1024 }
	return map[string]metric{
		"sim.events_per_op":                {c["sim.events"] / n, "count"},
		"sim.ns_per_event":                 {ratio(simNs, c["sim.events"]), "ns"},
		"kernel.new_us":                    {usPerCall("kernel.new"), "us"},
		"kernel.new_kib":                   {ratio(kib(opRows["kernel.new"].alloc), float64(opRows["kernel.new"].calls)), "KiB"},
		"kernel.lock_wait_sim_ms":          {c["kernel.lock_wait_sim_ms"] / n, "ms"},
		"platform.build_ms":                {msPerOp("platform.build"), "ms"},
		"varbench.run_ms":                  {msPerOp("varbench.run"), "ms"},
		"varbench.alloc_mib":               {float64(opRows["varbench.run"].alloc) / mib / n, "MiB"},
		"codec.encode_ms":                  {msPerOp("codec.encode"), "ms"},
		"codec.decode_ms":                  {msPerOp("codec.decode"), "ms"},
		"codec.payload_kib":                {ratio(c["codec.payload_bytes"]/1024, c["codec.payloads"]), "KiB"},
		"resultcache.get_ms":               {msPerOp("resultcache.get"), "ms"},
		"resultcache.put_ms":               {msPerOp("resultcache.put"), "ms"},
		"resultcache.hit_ratio":            {ratio(float64(st.Hits), float64(st.Lookups())), "ratio"},
		"resultcache.bytes_read_per_op":    {float64(st.BytesRead) / n, "B"},
		"resultcache.bytes_written_per_op": {float64(st.BytesWritten) / n, "B"},
		"fuzz.generate_ms":                 {opOrSetupMs("fuzz.generate"), "ms"},
		"specialize.profile_ms":            {opOrSetupMs("specialize.profile"), "ms"},
		"core.plan_ms":                     {msPerOp("core.plan"), "ms"},
		"core.render_ms":                   {msPerOp("core.render"), "ms"},
		"core.digest_ms":                   {msPerOp("core.digest"), "ms"},
		"daemon.job_ms":                    {jobMs / n, "ms"},
		"daemon.overhead_ms":               {(jobMs - replayMs) / n, "ms"},
		"daemon.events_per_job":            {c["daemon.events"] / n, "count"},
		"density.calls_per_op":             {c["density.calls"] / n, "count"},
		"density.alloc_kib_per_tenant":     {ratio(kib(opRows["density.run"].alloc), c["density.tenants"]), "KiB"},
		"density.makespan_sim_ms":          {c["density.makespan_sim_ms"] / n, "ms"},
		"tailbench.compile_request_us":     {usPerCall("tailbench.compile_request"), "us"},
		"cluster.requests_per_op":          {c["cluster.requests"] / n, "count"},
		"cluster.us_per_request":           {ratio(float64(opRows["cluster.run"].selfNs)/1e3, c["cluster.requests"]), "us"},
		"cluster.runtime_sim_ms":           {c["cluster.runtime_sim_ms"] / n, "ms"},
	}
}
