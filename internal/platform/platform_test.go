package platform

import (
	"math"
	"slices"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

func TestNativeLayout(t *testing.T) {
	eng := sim.NewEngine()
	e := Native(eng, PaperMachine, rng.New(1))
	if e.NumCores() != 64 || len(e.Kernels) != 1 {
		t.Fatalf("native: %d cores, %d kernels", e.NumCores(), len(e.Kernels))
	}
	if e.Kernels[0].Virtualized() {
		t.Fatal("native kernel reports virtualized")
	}
	if e.Kernels[0].NumCores() != 64 || e.Kernels[0].MemGB() != 32 {
		t.Fatal("native kernel surface area wrong")
	}
	for i := 0; i < 64; i++ {
		ref := e.Core(i)
		if ref.Kernel != e.Kernels[0] || ref.Core != i {
			t.Fatalf("core map wrong at %d", i)
		}
	}
}

func TestVMPartitioning(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		eng := sim.NewEngine()
		e := VMs(eng, PaperMachine, n, rng.New(1))
		if len(e.Kernels) != n {
			t.Fatalf("%d VMs: got %d kernels", n, len(e.Kernels))
		}
		if e.NumCores() != 64 {
			t.Fatalf("%d VMs: %d total cores", n, e.NumCores())
		}
		for _, k := range e.Kernels {
			if k.NumCores() != 64/n {
				t.Fatalf("%d VMs: kernel has %d cores", n, k.NumCores())
			}
			if k.MemGB() != 32/float64(n) {
				t.Fatalf("%d VMs: kernel has %v GB", n, k.MemGB())
			}
			if !k.Virtualized() {
				t.Fatalf("%d VMs: guest not virtualized", n)
			}
		}
		if e.HostBlock == nil {
			t.Fatal("VM env missing host block device")
		}
	}
}

func TestVMsRejectUneven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("uneven partition did not panic")
		}
	}()
	VMs(sim.NewEngine(), PaperMachine, 3, rng.New(1))
}

func TestContainersShareOneKernel(t *testing.T) {
	eng := sim.NewEngine()
	e := Containers(eng, PaperMachine, 16, rng.New(1))
	if len(e.Kernels) != 1 {
		t.Fatalf("containers built %d kernels", len(e.Kernels))
	}
	k := e.Kernels[0]
	if k.Virtualized() {
		t.Fatal("container kernel reports virtualized")
	}
	if k.NumCores() != 64 {
		t.Fatal("container kernel does not manage the full machine")
	}
	if k.Params().EntryOverhead == 0 {
		t.Fatal("containers should pay namespace entry overhead")
	}
}

func TestContainerNoiseScalesWithCount(t *testing.T) {
	e1 := Containers(sim.NewEngine(), PaperMachine, 1, rng.New(1))
	e64 := Containers(sim.NewEngine(), PaperMachine, 64, rng.New(1))
	p1, p64 := e1.Kernels[0].Params(), e64.Kernels[0].Params()
	if p64.NoiseMeanGap >= p1.NoiseMeanGap {
		t.Fatal("64 containers should densify housekeeping")
	}
	if p64.NoiseMaxBurst <= p1.NoiseMaxBurst {
		t.Fatal("64 containers should lengthen worst bursts")
	}
}

func TestContainersRejectNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 containers did not panic")
		}
	}()
	Containers(sim.NewEngine(), PaperMachine, 0, rng.New(1))
}

func TestVMConfigTableMatchesPaper(t *testing.T) {
	rows := VMConfigTable(PaperMachine)
	wantVMs := []int{1, 2, 4, 8, 16, 32, 64}
	wantCores := []int{64, 32, 16, 8, 4, 2, 1}
	wantMem := []float64{32, 16, 8, 4, 2, 1, 0.5}
	if len(rows) != len(wantVMs) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.VMs != wantVMs[i] || r.CoresPer != wantCores[i] || r.MemGBPer != wantMem[i] {
			t.Fatalf("row %d = %+v", i, r)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindNative.String() != "native" || KindVMs.String() != "kvm" || KindContainers.String() != "docker" {
		t.Fatal("kind names wrong")
	}
}

// The headline surface-area property: a guest in the 64-VM configuration
// has a far smaller noise ceiling than the native kernel.
func TestSurfaceAreaNoiseOrdering(t *testing.T) {
	eng := sim.NewEngine()
	nat := Native(eng, PaperMachine, rng.New(1))
	vms := VMs(sim.NewEngine(), PaperMachine, 64, rng.New(1))
	natCap := nat.Kernels[0].Params().NoiseMaxBurst
	vmCap := vms.Kernels[0].Params().NoiseMaxBurst
	if vmCap*10 > natCap {
		t.Fatalf("1-core guest noise cap %v not <<< native %v", vmCap, natCap)
	}
}

// Virtualization must be a bounded median tax: identical single tasks on
// native vs a 64-VM guest differ by a bounded small factor.
func TestVirtTaxBounded(t *testing.T) {
	run := func(e *Environment) sim.Time {
		ref := e.Core(0)
		var l kernel.OpList
		l.Compute(2 * sim.Microsecond)
		var got sim.Time
		ref.Kernel.Submit(ref.Core, &kernel.Task{Ops: l.Ops(), OnDone: func(lat sim.Time) { got = lat }})
		e.Eng.Run()
		return got
	}
	natEng := sim.NewEngine()
	nat := Native(natEng, PaperMachine, rng.New(9))
	vmEng := sim.NewEngine()
	vm := VMs(vmEng, PaperMachine, 64, rng.New(9))
	tn, tv := run(nat), run(vm)
	if tv <= tn {
		t.Fatalf("virtualized task (%v) not slower than native (%v)", tv, tn)
	}
	if tv > 2*tn {
		t.Fatalf("virtualization tax unbounded: %v vs %v", tv, tn)
	}
}

func TestLightVMsLayout(t *testing.T) {
	eng := sim.NewEngine()
	e := New(eng, KindLightVMs, PaperMachine, 4, rng.New(1), nil)
	if e.Kind != KindLightVMs || e.Kind.String() != "lightvm" {
		t.Fatal("wrong kind")
	}
	if len(e.Kernels) != 4 || e.NumCores() != 64 {
		t.Fatal("wrong partitioning")
	}
	for _, k := range e.Kernels {
		if !k.Virtualized() {
			t.Fatal("microVM guest not virtualized")
		}
	}
}

func TestLightVMTaxBelowKVMs(t *testing.T) {
	host := sim.NewSemaphore(sim.NewEngine(), "h", 8)
	light, kvm := LightVirtModel(host), DefaultVirtModel(host)
	if light.ExitCost >= kvm.ExitCost || light.ComputeDilation >= kvm.ComputeDilation ||
		light.PerTaskOverhead >= kvm.PerTaskOverhead || light.VirtioRelay >= kvm.VirtioRelay {
		t.Fatal("lightweight VM tax not below classic KVM's")
	}
}

func TestFromKernelWraps(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{Name: "abl", Cores: 4, MemGB: 2}, rng.New(1))
	e := FromKernel(eng, k)
	if e.NumCores() != 4 || e.Kernels[0] != k || e.Core(3).Core != 3 {
		t.Fatal("FromKernel wiring wrong")
	}
}

// New reproduces, kind by kind, the layouts of the per-kind builders it
// replaced: environment and kernel names, unit counts, each kernel's
// share of the machine and its seed (kernel i draws from
// src.Split(salt+i)), the core map, and the block-queue wiring.
func TestNewLayouts(t *testing.T) {
	m := Machine{Cores: 8, MemGB: 4}
	red := kernel.NewReduction(16)
	cases := []struct {
		kind    EnvKind
		units   int
		name    string
		kernels []string
		salt    uint64
		mem     float64 // per kernel
		host    int     // host block queue slots, 0 = none
		node    int     // node-wide block queue slots, 0 = a private queue per kernel
	}{
		{KindNative, 4, "native", []string{"native"}, 0x4e415456, 4, 0, 0},
		{KindVMs, 4, "kvm-4x2", []string{"vm0", "vm1", "vm2", "vm3"}, 0x564d, 1, 8, 0},
		{KindContainers, 4, "docker-4x2", []string{"docker-4"}, 4 + 0x444f434b, 4, 0, 0},
		{KindLightVMs, 2, "lightvm-2x4", []string{"microvm0", "microvm1"}, 0x4c56, 2, 8, 0},
		{KindSpecialized, 2, "spec-2x4", []string{"spec0", "spec1"}, 0x5350, 2, 0, 4},
	}
	for _, tc := range cases {
		e := New(sim.NewEngine(), tc.kind, m, tc.units, rng.New(3), red)
		var names []string
		for _, k := range e.Kernels {
			names = append(names, k.Name())
		}
		wantUnits := tc.units
		if tc.kind == KindNative {
			wantUnits = 1
		}
		if e.Name != tc.name || e.Kind != tc.kind || e.Units != wantUnits || !slices.Equal(names, tc.kernels) {
			t.Errorf("%v: got %s kind %v, %d units, kernels %v; want %s, %d units, kernels %v",
				tc.kind, e.Name, e.Kind, e.Units, names, tc.name, wantUnits, tc.kernels)
			continue
		}
		per := m.Cores / len(e.Kernels)
		if e.NumCores() != m.Cores {
			t.Errorf("%v: %d cores in the core map, want %d", tc.kind, e.NumCores(), m.Cores)
		}
		for i := 0; i < e.NumCores(); i++ {
			if ref := e.Core(i); ref.Kernel != e.Kernels[i/per] || ref.Core != i%per {
				t.Errorf("%v: core %d maps to %s/%d", tc.kind, i, ref.Kernel.Name(), ref.Core)
			}
		}
		seeds := rng.New(3)
		for i, k := range e.Kernels {
			if k.NumCores() != per || k.MemGB() != tc.mem {
				t.Errorf("%v: %s has %d cores and %v GB, want %d and %v", tc.kind, k.Name(), k.NumCores(), k.MemGB(), per, tc.mem)
			}
			// Core 0's stream matches a kernel built from the expected split.
			var virt *kernel.VirtModel
			if k.Virtualized() {
				virt = DefaultVirtModel(nil)
			}
			want := kernel.New(sim.NewEngine(), kernel.Config{Name: "ref", Cores: per, MemGB: tc.mem, Virt: virt},
				seeds.Split(tc.salt+uint64(i)))
			if k.Rng(0).Uint64() != want.Rng(0).Uint64() {
				t.Errorf("%v: %s is not seeded from src.Split(%#x+%d)", tc.kind, k.Name(), tc.salt, i)
			}
			if k.Virtualized() != (tc.host > 0) || k.HostBlockDevice() != e.HostBlock {
				t.Errorf("%v: %s relays through %v, want the environment's host queue %v", tc.kind, k.Name(), k.HostBlockDevice(), e.HostBlock)
			}
			if (k.Reduction() == red) != (tc.kind == KindSpecialized) {
				t.Errorf("%v: %s has reduction %p", tc.kind, k.Name(), k.Reduction())
			}
			dev := k.BlockDevice()
			if tc.node > 0 {
				if dev != e.Kernels[0].BlockDevice() || dev.Name() != "node-blk" || dev.Cap() != tc.node {
					t.Errorf("%v: %s queues on %s/%d, want the shared node-blk/%d", tc.kind, k.Name(), dev.Name(), dev.Cap(), tc.node)
				}
			} else if dev.Name() != k.Name()+"/blkdev" {
				t.Errorf("%v: %s queues on %s, want its private queue", tc.kind, k.Name(), dev.Name())
			}
		}
		if tc.host > 0 {
			if e.HostBlock == nil || e.HostBlock.Name() != "host-blk" || e.HostBlock.Cap() != tc.host {
				t.Errorf("%v: host block queue %v, want host-blk/%d", tc.kind, e.HostBlock, tc.host)
			}
		} else if e.HostBlock != nil {
			t.Errorf("%v: unexpected host block queue", tc.kind)
		}
		if tc.kind == KindContainers && e.Kernels[0].Params() != ContainerParams(m, tc.units) {
			t.Errorf("docker: shared kernel params %+v, want ContainerParams", e.Kernels[0].Params())
		}
	}
}

// New panics exactly on the layouts Check rejects.
func TestNewPanicsIffCheckFails(t *testing.T) {
	kinds := append(Kinds(), EnvKind(len(Kinds())))
	for _, kind := range kinds {
		for _, mem := range []float64{4, 0, math.NaN()} {
			for _, cores := range []int{0, 1, 3, 4, 8} {
				for _, units := range []int{-1, 0, 1, 2, 3, 4, 8} {
					m := Machine{Cores: cores, MemGB: mem}
					err := Check(kind, m, units)
					panicked := func() (p bool) {
						defer func() { p = recover() != nil }()
						New(sim.NewEngine(), kind, m, units, rng.New(1), nil)
						return false
					}()
					if panicked != (err != nil) {
						t.Errorf("New(%v, %+v, %d): panicked=%t, Check=%v", kind, m, units, panicked, err)
					}
				}
			}
		}
	}
}

func TestParseKindInvertsString(t *testing.T) {
	for _, k := range Kinds() {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %t; want %v", k.String(), got, ok, k)
		}
	}
	for _, s := range []string{"", "xen", "KVM", "spec", "docker-4", EnvKind(len(Kinds())).String()} {
		if k, ok := ParseKind(s); ok {
			t.Errorf("ParseKind(%q) = %v, want rejected", s, k)
		}
	}
}
