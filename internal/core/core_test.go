package core

import (
	"strings"
	"testing"
)

func TestVMConfigTableContent(t *testing.T) {
	out := VMConfigTable().String()
	for _, want := range []string{"# VMs", "64", "0.5", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable2Quick(t *testing.T) {
	res := quick(t, "table2").Result.(Table2Result)
	if len(res.Envs) != 3 {
		t.Fatalf("%d environments", len(res.Envs))
	}
	if res.CorpusCalls == 0 {
		t.Fatal("empty corpus")
	}
	for i := range res.Envs {
		if res.Median[i].N == 0 || res.P99[i].N == 0 || res.Max[i].N == 0 {
			t.Fatalf("env %s has empty breakdowns", res.Envs[i])
		}
	}
	// The paper's core Table 2 claims, which must hold at any scale:
	// native has more sub-µs medians than KVM (virtualization tax)...
	if res.Median[0].Under[0] <= res.Median[1].Under[0] {
		t.Errorf("native sub-µs medians (%.1f%%) should exceed KVM's (%.1f%%)",
			res.Median[0].Under[0], res.Median[1].Under[0])
	}
	// ...and KVM bounds the tails: at least as many sites under 10ms at p99.
	if res.P99[1].Under[4] < res.P99[0].Under[4] {
		t.Errorf("KVM p99 under-10ms share (%.1f%%) below native (%.1f%%)",
			res.P99[1].Under[4], res.P99[0].Under[4])
	}
	out := res.Render()
	for _, want := range []string{"Median", "99th percentile", "Worst case", "native", "kvm-64x1", "docker-64x1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunFigure2Quick(t *testing.T) {
	res := quick(t, "fig2").Result.(Figure2Result)
	if len(res.VMCounts) != 7 || res.VMCounts[0] != 1 || res.VMCounts[6] != 64 {
		t.Fatalf("VM counts %v", res.VMCounts)
	}
	if len(res.Categories) != 6 {
		t.Fatalf("%d categories", len(res.Categories))
	}
	out := res.Render()
	for _, want := range []string{"(a) proc", "(f) perm", "64 VMs"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunTable3Quick(t *testing.T) {
	res := quick(t, "table3").Result.(Table3Result)
	if len(res.Counts) != 7 {
		t.Fatalf("counts %v", res.Counts)
	}
	for i, b := range res.Max {
		if b.N == 0 {
			t.Fatalf("count %d has empty breakdown", res.Counts[i])
		}
	}
	if !strings.Contains(res.Render(), "# ctnrs") {
		t.Error("render missing row label")
	}
}

func TestRunFigure3Quick(t *testing.T) {
	res := quick(t, "fig3").Result.(Figure3Result)
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows, want 8 apps", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.KVMIso <= 0 || row.DockerIso <= 0 || row.KVMCont <= 0 || row.DockerCont <= 0 {
			t.Fatalf("%s: degenerate p99s %+v", row.App, row)
		}
	}
	out := res.Render()
	for _, want := range []string{"Figure 3(a)", "Figure 3(b)", "Figure 3(c)", "xapian", "shore"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunFigure4Quick(t *testing.T) {
	res := quick(t, "fig4").Result.(Figure4Result)
	if len(res.Rows) != len(Fig4Apps()) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.KVMIso <= 0 || row.DockerIso <= 0 {
			t.Fatalf("%s: degenerate runtimes %+v", row.App, row)
		}
	}
	out := res.Render()
	for _, want := range []string{"Figure 4(a)", "Figure 4(c)", "silo"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig4AppsExcludeShoreAndSpecjbb(t *testing.T) {
	for _, a := range Fig4Apps() {
		if a == "shore" || a == "specjbb" {
			t.Fatalf("%s must be excluded at cluster scale (paper §6.3)", a)
		}
	}
}

func TestScalesDiffer(t *testing.T) {
	d, q := DefaultScale(), QuickScale()
	if q.CorpusPrograms >= d.CorpusPrograms || q.Iterations >= d.Iterations || q.Nodes >= d.Nodes {
		t.Fatal("QuickScale not smaller than DefaultScale")
	}
}

func TestRunAblationQuick(t *testing.T) {
	res := quick(t, "ablation").Result.(AblationResult)
	if len(res.Rows) < 5 {
		t.Fatalf("%d ablation variants", len(res.Rows))
	}
	full := res.Rows[0]
	if full.Variant != "full model" {
		t.Fatalf("first row is %q", full.Variant)
	}
	quiet := res.Rows[1]
	// Removing housekeeping entirely must not worsen the tails.
	if quiet.MaxOver1ms > full.MaxOver1ms+1e-9 {
		t.Errorf("quiet kernel has worse tails (%.2f%%) than full model (%.2f%%)",
			quiet.MaxOver1ms, full.MaxOver1ms)
	}
	out := res.Render()
	if !strings.Contains(out, "Ablation") || !strings.Contains(out, "max>10ms") {
		t.Error("render missing sections")
	}
}

func TestRunLightVMExtensionQuick(t *testing.T) {
	res := quick(t, "lightvm").Result.(LightVMResult)
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.LightIso <= 0 || row.KVMIso <= 0 || row.DockerIso <= 0 {
			t.Fatalf("%s: degenerate values %+v", row.App, row)
		}
	}
	if !strings.Contains(res.Render(), "LightVM") {
		t.Error("render missing LightVM series")
	}
}
