// Package platform assembles evaluation environments: a native Linux-style
// single kernel, KVM-style or lightweight virtual machines (Table 1's
// configurations), Docker-style containers sharing one kernel, or
// per-tenant specialized kernels. New is the one place that maps a kind to
// its kernels. Every environment exposes the same flat view of cores so
// the harness deploys identically everywhere — the paper's "no dependence
// on evaluation environment" property (§3.2).
package platform

import (
	"fmt"
	"math"
	"strconv"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// Machine describes the physical host: the hardware resources available to
// be partitioned. The paper's system-call platform is a 64-hardware-thread
// AMD EPYC with 32 GB devoted to the benchmark (Table 1).
type Machine struct {
	Cores int
	MemGB float64
}

// PaperMachine is the Table 1 host: 64 cores and 32 GB virtualized in
// every configuration.
var PaperMachine = Machine{Cores: 64, MemGB: 32}

// EnvKind discriminates environment flavors.
type EnvKind uint8

// Environment kinds.
const (
	KindNative EnvKind = iota
	KindVMs
	KindContainers
	// KindLightVMs is the "lightweight VM" environment: Firecracker / Kata /
	// Nabla-class systems the paper's related-work section names as the
	// interesting middle ground — container-like density and ergonomics
	// with VM-grade kernel isolation. The paper explicitly leaves
	// evaluating them as future work ("such technologies would be
	// interesting to evaluate in a similar fashion"); this model is that
	// evaluation's substrate.
	KindLightVMs
	// KindSpecialized is the MultiK-style per-tenant specialized
	// environment: n kernels partition the machine evenly (like VMs,
	// without a hypervisor tax), but every kernel is generated from a
	// workload profile — unreached syscalls unmapped, untouched lock slabs
	// dropped from the retained set, housekeeping and cache working sets
	// shrunk to the profiled footprint. It models co-deploying
	// per-application reduced kernels on one node, the surface-area
	// endgame the paper's isolation argument points at.
	KindSpecialized
)

// kindNames holds each kind's name, the spelling sweep specs and job keys
// use.
var kindNames = [...]string{
	KindNative:      "native",
	KindVMs:         "kvm",
	KindContainers:  "docker",
	KindLightVMs:    "lightvm",
	KindSpecialized: "specialized",
}

// String names the kind ("native", "kvm", "docker", "lightvm",
// "specialized").
func (k EnvKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// ParseKind is the inverse of String: it returns the kind named s, or
// false if no kind has that name.
func ParseKind(s string) (EnvKind, bool) {
	for k, name := range kindNames {
		if name == s {
			return EnvKind(k), true
		}
	}
	return 0, false
}

// Kinds returns every environment kind, in kind order.
func Kinds() []EnvKind {
	ks := make([]EnvKind, len(kindNames))
	for k := range ks {
		ks[k] = EnvKind(k)
	}
	return ks
}

// Check reports whether units of kind fit m: the machine needs at least
// one core and a positive, finite amount of memory, the partitioned kinds
// (kvm, lightvm, specialized) need units that divide its cores evenly, and
// containers need at least one unit. Native ignores units. New panics on
// any layout Check rejects, so every boundary that accepts layouts from
// outside (flags, HTTP bodies) checks them first.
func Check(kind EnvKind, m Machine, units int) error {
	if m.Cores < 1 {
		return fmt.Errorf("machine has %d cores, want at least 1", m.Cores)
	}
	if !(m.MemGB > 0) || math.IsInf(m.MemGB, 1) {
		return fmt.Errorf("machine has %g GB of memory, want a positive finite amount", m.MemGB)
	}
	switch kind {
	case KindNative:
	case KindVMs, KindLightVMs, KindSpecialized:
		if units < 1 || m.Cores%units != 0 {
			return fmt.Errorf("%s-%d: %d units do not evenly partition %d cores", kind, units, units, m.Cores)
		}
	case KindContainers:
		if units < 1 {
			return fmt.Errorf("%s-%d: want at least 1 container", kind, units)
		}
	default:
		return fmt.Errorf("unknown environment %s", kind)
	}
	return nil
}

// CoreRef addresses one core of one kernel.
type CoreRef struct {
	Kernel *kernel.Kernel
	Core   int
}

// Environment is a deployed configuration: one or more kernels covering the
// machine, plus the flat core map the harness iterates over.
type Environment struct {
	Name    string
	Kind    EnvKind
	Units   int // kernels for VMs, containers for Docker, 1 for native
	Eng     *sim.Engine
	Kernels []*kernel.Kernel
	// HostBlock is the shared host block device (VM environments only).
	HostBlock *sim.Semaphore

	cores []CoreRef
}

// NumCores returns the machine-wide core count.
func (e *Environment) NumCores() int { return len(e.cores) }

// Core returns the global core i's kernel-local address.
func (e *Environment) Core(i int) CoreRef { return e.cores[i] }

// add appends k and its cores to the environment's core map.
func (e *Environment) add(k *kernel.Kernel) {
	e.Kernels = append(e.Kernels, k)
	for c := 0; c < k.NumCores(); c++ {
		e.cores = append(e.cores, CoreRef{Kernel: k, Core: c})
	}
}

// New builds units of kind on m, drawing all construction randomness from
// src:
//
//   - native: one kernel managing the whole machine (units is ignored);
//   - kvm: units guest kernels, each with 1/units of the cores and memory
//     (Table 1's rows), vCPUs pinned, and a virtio disk relayed through
//     the shared host block device;
//   - lightvm: the same partition with the lightweight overhead model;
//   - docker: one shared kernel managing the whole machine; each container
//     contributes cgroup/memcg housekeeping to it (ContainerParams), so
//     medians stay native-like but the shared kernel's noise grows mildly
//     with the container count — Table 3's worst-case effect;
//   - specialized: units tenant kernels partitioning the machine evenly,
//     each generated from red (one profiled workload class deployed units
//     times). A nil red deploys full-surface kernels — pure MultiK
//     partitioning, the like-for-like baseline. Other kinds ignore red.
//
// New panics if Check(kind, m, units) fails.
func New(eng *sim.Engine, kind EnvKind, m Machine, units int, src *rng.Source, red *kernel.Reduction) *Environment {
	if err := Check(kind, m, units); err != nil {
		panic("platform: " + err.Error())
	}
	switch kind {
	case KindVMs, KindLightVMs:
		virt, name, guest, salt := DefaultVirtModel, "kvm", "vm", uint64(0x564d)
		if kind == KindLightVMs {
			virt, name, guest, salt = LightVirtModel, "lightvm", "microvm", 0x4c56
		}
		host := sim.NewSemaphore(eng, "host-blk", 8)
		e := partition(eng, kind, m, units, src, name, guest, salt, func(c kernel.Config) kernel.Config {
			c.Virt = virt(host)
			return c
		})
		e.HostBlock = host
		return e
	case KindSpecialized:
		// Co-located kernels bypass a hypervisor but still share the node's
		// one physical disk: block I/O contends on a node-wide queue.
		// Unlike the VM environments, no host-side I/O scheduler sits
		// between the kernels and the device to coalesce and re-order
		// submissions, so fewer effective slots are in flight (4 versus the
		// host relay's 8). This is the residual shared surface MultiK
		// cannot specialize away.
		node := sim.NewSemaphore(eng, "node-blk", 4)
		return partition(eng, kind, m, units, src, "spec", "spec", 0x5350, func(c kernel.Config) kernel.Config {
			c.Reduction, c.SharedBlockDev = red, node
			return c
		})
	case KindContainers:
		k := kernel.New(eng, kernel.Config{
			Name:   fmt.Sprintf("docker-%d", units),
			Cores:  m.Cores,
			MemGB:  m.MemGB,
			Params: ContainerParams(m, units),
		}, src.Split(uint64(units)+0x444f434b))
		e := &Environment{Name: fmt.Sprintf("docker-%dx%d", units, m.Cores/units), Kind: kind, Units: units, Eng: eng}
		e.add(k)
		return e
	default: // KindNative: Check rejects every other kind
		return FromKernel(eng, kernel.New(eng, kernel.Config{
			Name:  "native",
			Cores: m.Cores,
			MemGB: m.MemGB,
		}, src.Split(0x4e415456)))
	}
}

// partition splits m evenly into units kernels: kernel i is named guest+i,
// draws its randomness from src.Split(salt+i), and with adds what the kind
// layers on top of its share of cores and memory. Configs pass by value and
// names are concatenated because a *kernel.Config or a string boxed for
// fmt would cost one heap allocation per kernel.
func partition(eng *sim.Engine, kind EnvKind, m Machine, units int, src *rng.Source,
	name, guest string, salt uint64, with func(kernel.Config) kernel.Config) *Environment {
	coresPer := m.Cores / units
	memPer := m.MemGB / float64(units)
	e := &Environment{Name: name + "-" + strconv.Itoa(units) + "x" + strconv.Itoa(coresPer), Kind: kind, Units: units, Eng: eng}
	for i := 0; i < units; i++ {
		cfg := with(kernel.Config{Name: guest + strconv.Itoa(i), Cores: coresPer, MemGB: memPer})
		e.add(kernel.New(eng, cfg, src.Split(uint64(i)+salt)))
	}
	return e
}

// Native builds the bare-metal environment: one kernel managing the whole
// machine.
func Native(eng *sim.Engine, m Machine, src *rng.Source) *Environment {
	return New(eng, KindNative, m, 1, src, nil)
}

// VMs builds an n-VM environment partitioning the machine evenly (see
// New). n must divide the core count.
func VMs(eng *sim.Engine, m Machine, n int, src *rng.Source) *Environment {
	return New(eng, KindVMs, m, n, src, nil)
}

// Containers builds an n-container environment over one shared kernel
// (see New). n must be positive.
func Containers(eng *sim.Engine, m Machine, n int, src *rng.Source) *Environment {
	return New(eng, KindContainers, m, n, src, nil)
}

// FromKernel wraps a pre-built kernel as a native-style environment — used
// by ablation studies that need full control over kernel parameters.
func FromKernel(eng *sim.Engine, k *kernel.Kernel) *Environment {
	e := &Environment{Name: k.Name(), Kind: KindNative, Units: 1, Eng: eng}
	e.add(k)
	return e
}

// ContainerParams returns the shared kernel's parameters on m under n
// containers: each container's cgroup scanning densifies housekeeping and
// extends the worst bursts slightly, and every kernel entry pays the
// namespace indirection.
func ContainerParams(m Machine, n int) kernel.Params {
	par := kernel.DefaultParams(m.Cores, m.MemGB)
	par.NoiseMeanGap = sim.Time(float64(par.NoiseMeanGap) / (1 + 0.012*float64(n)))
	par.NoiseMaxBurst = sim.Time(float64(par.NoiseMaxBurst) * (1 + 0.004*float64(n)))
	par.EntryOverhead = 40 * sim.Nanosecond
	return par
}

// DefaultVirtModel returns the KVM-style overhead model: a bounded,
// hardware-determined tax (§4.3's first observation). The host block queue
// is supplied by the environment so all VMs share one device.
func DefaultVirtModel(host *sim.Semaphore) *kernel.VirtModel {
	return &kernel.VirtModel{
		PerTaskOverhead: 400 * sim.Nanosecond,
		// Nested paging makes in-kernel work measurably slower (EPT walks
		// on TLB misses); ~1.3x is in line with published guest-kernel
		// slowdowns for paging-heavy paths.
		ComputeDilation: 1.3,
		ExitCost:        sim.FromMicros(1.3),
		HostBlockQueue:  host,
		VirtioRelay:     sim.FromMicros(24),
		// Host residency: ticks/IRQs/housekeeping on the pinned pCPU, each
		// burst also costing an exit. Bounded and light-tailed — the host
		// runs no tenant workload.
		HostNoiseGap:   sim.FromMillis(2.2),
		HostNoiseMin:   sim.FromMicros(55),
		HostNoiseMax:   sim.FromMicros(500),
		HostNoiseAlpha: 1.8,
	}
}

// LightVirtModel returns the lightweight hypervisor's overhead model: the
// same isolation structure as DefaultVirtModel (private guest kernel,
// shared host device) with a much smaller tax — a minimal VMM means fewer
// and cheaper exits, a slimmer host stack means less residency steal, and a
// leaner paravirtual block path relays faster.
func LightVirtModel(host *sim.Semaphore) *kernel.VirtModel {
	return &kernel.VirtModel{
		PerTaskOverhead: 150 * sim.Nanosecond,
		ComputeDilation: 1.12,
		ExitCost:        sim.FromMicros(0.7),
		HostBlockQueue:  host,
		VirtioRelay:     sim.FromMicros(9),
		HostNoiseGap:    sim.FromMillis(4.5),
		HostNoiseMin:    sim.FromMicros(25),
		HostNoiseMax:    sim.FromMicros(220),
		HostNoiseAlpha:  2.0,
	}
}

// VMConfig is one row of Table 1.
type VMConfig struct {
	VMs      int
	CoresPer int
	MemGBPer float64
}

// VMConfigTable returns Table 1: the spectrum of VM configurations that
// virtualize the machine's 64 cores and 32 GB.
func VMConfigTable(m Machine) []VMConfig {
	var out []VMConfig
	for n := 1; n <= m.Cores; n *= 2 {
		out = append(out, VMConfig{
			VMs:      n,
			CoresPer: m.Cores / n,
			MemGBPer: m.MemGB / float64(n),
		})
	}
	return out
}
