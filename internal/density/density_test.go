package density

import (
	"math"
	"strings"
	"testing"

	"ksa/internal/stats"
	"ksa/internal/syscalls"
)

func smallOpts(s Surface) Options {
	return Options{Surface: s, Tenants: 200, RequestsPerTenant: 2, Seed: 42}
}

// Every surface has its own name, never String's fallback: the names key
// the density tables and CSV rows.
func TestSurfaceNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Surfaces {
		name := s.String()
		if seen[name] || strings.HasPrefix(name, "surface(") {
			t.Fatalf("surface %d is named %q", s, name)
		}
		seen[name] = true
	}
}

func TestRunCompletesAllTenants(t *testing.T) {
	for _, s := range Surfaces {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			o := smallOpts(s)
			r := Run(o)
			if r.Requests != o.Tenants*o.RequestsPerTenant {
				t.Fatalf("%d requests completed, want %d", r.Requests, o.Tenants*o.RequestsPerTenant)
			}
			wantCalls := uint64(r.Requests * 9)
			if r.Calls != wantCalls {
				t.Fatalf("%d calls recorded, want %d", r.Calls, wantCalls)
			}
			if r.Queue.Len() != o.Tenants || r.Lifetime.Len() != o.Tenants {
				t.Fatalf("queue/lifetime samples %d/%d, want %d each",
					r.Queue.Len(), r.Lifetime.Len(), o.Tenants)
			}
			if int(r.All.Len()) != int(wantCalls) {
				t.Fatalf("pooled sample %d, want %d", r.All.Len(), wantCalls)
			}
			if len(r.Category) != len(syscalls.CategoryNames) {
				t.Fatalf("%d category samples, want %d", len(r.Category), len(syscalls.CategoryNames))
			}
			// Every category the cold-start program touches must have data;
			// IPC is the one group the burst never enters.
			for ci, cn := range syscalls.CategoryNames {
				if cn.Name == "ipc" {
					if r.Category[ci].Len() != 0 {
						t.Fatalf("ipc sample has %d values, want 0", r.Category[ci].Len())
					}
					continue
				}
				if r.Category[ci].Len() == 0 {
					t.Fatalf("category %s recorded nothing", cn.Name)
				}
			}
			if r.Makespan <= 0 || r.Events == 0 {
				t.Fatalf("degenerate cell: makespan %v events %d", r.Makespan, r.Events)
			}
		})
	}
}

// TestRunDeterministic asserts bit-identity across repeated runs: same
// options, same seed, identical sketches (integer state compared exactly)
// and identical scalar outputs.
func TestRunDeterministic(t *testing.T) {
	for _, s := range Surfaces {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			a, b := Run(smallOpts(s)), Run(smallOpts(s))
			if a.Makespan != b.Makespan || a.Events != b.Events || a.Calls != b.Calls {
				t.Fatalf("scalar drift: %v/%d/%d vs %v/%d/%d",
					a.Makespan, a.Events, a.Calls, b.Makespan, b.Events, b.Calls)
			}
			pairs := [][2]*stats.Sample{
				{a.Queue, b.Queue}, {a.Lifetime, b.Lifetime},
				{a.Request, b.Request}, {a.All, b.All},
			}
			for ci := range a.Category {
				pairs = append(pairs, [2]*stats.Sample{a.Category[ci], b.Category[ci]})
			}
			for i, p := range pairs {
				ka, kb := p[0].Sketch(), p[1].Sketch()
				ba, ca, za, mina, maxa := ka.Parts()
				bb, cb, zb, minb, maxb := kb.Parts()
				if ka.N() != kb.N() || ba != bb || za != zb ||
					math.Float64bits(mina) != math.Float64bits(minb) ||
					math.Float64bits(maxa) != math.Float64bits(maxb) ||
					len(ca) != len(cb) {
					t.Fatalf("sample %d sketch header drift", i)
				}
				for j := range ca {
					if ca[j] != cb[j] {
						t.Fatalf("sample %d bucket %d drift", i, j)
					}
				}
			}
		})
	}
}

// TestSketchMatchesExactOracle runs the same cell under both stats backends:
// the recorded latencies are identical, so every sketch quantile must sit
// within the documented relative error of the exact oracle's.
func TestSketchMatchesExactOracle(t *testing.T) {
	o := smallOpts(Containers)
	sk := Run(o)
	o.ExactStats = true
	ex := Run(o)
	if sk.Makespan != ex.Makespan || sk.Events != ex.Events || sk.Calls != ex.Calls {
		t.Fatalf("backend choice changed the simulation: %v/%d vs %v/%d",
			sk.Makespan, sk.Events, ex.Makespan, ex.Events)
	}
	check := func(name string, a, b *stats.Sample) {
		t.Helper()
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got, want := a.Quantile(q), b.Quantile(q)
			if math.IsNaN(got) && math.IsNaN(want) {
				continue
			}
			if diff := math.Abs(got - want); diff > stats.SketchRelError*math.Abs(want)+1e-9 {
				t.Errorf("%s q=%g: sketch %v vs exact %v", name, q, got, want)
			}
		}
	}
	check("all", sk.All, ex.All)
	check("request", sk.Request, ex.Request)
	check("lifetime", sk.Lifetime, ex.Lifetime)
	for ci, cn := range syscalls.CategoryNames {
		check(cn.Name, sk.Category[ci], ex.Category[ci])
	}
}

// TestSurfaceCharacter pins the scenario's qualitative physics: KVM boots
// are the slowest path (per-tenant guest construction), and the specialized
// kernel — same per-tenant isolation — undercuts KVM on end-to-end tenant
// lifetime by shedding the virtualization tax and most housekeeping.
func TestSurfaceCharacter(t *testing.T) {
	kvm := Run(smallOpts(KVM))
	spec := Run(smallOpts(Specialized))
	if k, s := kvm.Lifetime.Median(), spec.Lifetime.Median(); s >= k {
		t.Fatalf("specialized median lifetime %v not below kvm %v", s, k)
	}
	if k, s := kvm.Request.Median(), spec.Request.Median(); s >= k {
		t.Fatalf("specialized median request %v not below kvm %v", s, k)
	}
}

// TestQueueingKicksIn drives arrivals far faster than service so admission
// must queue: most tenants wait, and waits are visible in the sample.
func TestQueueingKicksIn(t *testing.T) {
	o := smallOpts(Containers)
	o.ArrivalGapMean = 1 // ns-scale gaps: all tenants arrive nearly at once
	r := Run(o)
	if r.Queue.Len() != o.Tenants {
		t.Fatalf("queue sample %d, want %d", r.Queue.Len(), o.Tenants)
	}
	if r.Queue.P99() <= 0 {
		t.Fatalf("p99 queue wait %v, want > 0 under overload", r.Queue.P99())
	}
	if r.Queue.Min() != 0 {
		t.Fatalf("min queue wait %v, want 0 (first arrivals admitted immediately)", r.Queue.Min())
	}
}

func BenchmarkDensityCell(b *testing.B) {
	o := Options{Surface: Specialized, Tenants: 100, RequestsPerTenant: 2, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(o)
	}
}
