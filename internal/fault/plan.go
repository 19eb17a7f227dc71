package fault

import (
	"fmt"
	"hash/fnv"
	"strings"

	"ksa/internal/kernel"
	"ksa/internal/sim"
)

// Kind discriminates injector mechanisms.
type Kind uint8

const (
	// LockHold grabs one randomly chosen lock from the target class per
	// firing and holds it for a sampled duration — lock-holder preemption,
	// the paper's "potentially unbounded software interference" dosed on
	// demand.
	LockHold Kind = iota
	// DaemonStorm sweeps every lock in the target class in order per
	// firing, holding each briefly — the kswapd/writeback shape, where one
	// background pass touches the zone freelists and then the LRU.
	DaemonStorm
	// Jitter installs a lazy timer-interrupt noise stream on every core:
	// bursts with exponential gaps and bounded-Pareto lengths stolen from
	// whatever runs. It doses even Quiet kernels.
	Jitter
	// IPIStorm periodically charges every core of the kernel
	// interrupt-handler debt, like an injected TLB-shootdown broadcast.
	IPIStorm

	numKinds
)

var kindNames = [numKinds]string{"lock-hold", "daemon-storm", "jitter", "ipi-storm"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Class names a target resource class — a set of kernel locks that one real
// noise source would plausibly contend.
type Class uint8

const (
	// ClassMem targets the page allocator and reclaim locks (zone, lru):
	// what kswapd, compaction, and THP defrag hold.
	ClassMem Class = iota
	// ClassFS targets the VFS/journal locks (journal, dcache, mount): what
	// writeback flusher threads and sync storms hold.
	ClassFS
	// ClassProc targets process-management locks (tasklist, pidmap): what
	// fork/exit storms and ps-style scans hold.
	ClassProc
	// ClassIPC targets the SysV IPC global lock.
	ClassIPC
	// ClassAll is the union of the above.
	ClassAll

	numClasses
)

var classNames = [numClasses]string{"mem", "fs", "proc", "ipc", "all"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classLocks maps a class to the kernel locks it targets. Order matters for
// DaemonStorm (the sweep order) and for determinism generally.
var classLocks = [numClasses][]kernel.LockID{
	ClassMem:  {kernel.LockZone, kernel.LockLRU},
	ClassFS:   {kernel.LockJournal, kernel.LockDcache, kernel.LockMount},
	ClassProc: {kernel.LockTasklist, kernel.LockPIDMap},
	ClassIPC:  {kernel.LockIPC},
	ClassAll: {
		kernel.LockZone, kernel.LockLRU,
		kernel.LockJournal, kernel.LockDcache, kernel.LockMount,
		kernel.LockTasklist, kernel.LockPIDMap,
		kernel.LockIPC,
	},
}

// Locks returns the kernel locks a class targets (shared slice; do not
// mutate).
func (c Class) Locks() []kernel.LockID {
	if int(c) < len(classLocks) {
		return classLocks[c]
	}
	return nil
}

// Injector is one interference source in a plan.
type Injector struct {
	Kind Kind
	// Class selects the target locks for LockHold and DaemonStorm; it is
	// ignored (and canonically ClassMem) for Jitter and IPIStorm.
	Class Class
	// Gap is the mean gap between firings (exponential for LockHold and
	// IPIStorm, and between daemon sweeps; the jitter stream uses it as its
	// burst gap mean).
	Gap sim.Time
	// MinDur/MaxDur/Alpha parameterize the bounded-Pareto magnitude of each
	// hold, burst, or per-core handler charge.
	MinDur sim.Time
	MaxDur sim.Time
	Alpha  float64
}

// Plan is a named interference scenario: a set of injectors applied to the
// kernels whose names match Scope.
type Plan struct {
	// Name identifies the plan in job keys and report headers.
	Name string
	// Scope restricts injection to kernels whose Name contains this
	// substring; empty means every kernel.
	Scope     string
	Injectors []Injector
}

// Validate checks the plan is well-formed: at least one injector, positive
// gaps, ordered positive magnitudes, finite alpha > 0, and names free of
// whitespace (they travel through single-line job keys and the canonical
// encoding Sig hashes).
func (p *Plan) Validate() error {
	if strings.ContainsAny(p.Name, " \t\r\n=") || p.Name == "" {
		return fmt.Errorf("fault: plan name %q must be non-empty without whitespace or '='", p.Name)
	}
	if strings.ContainsAny(p.Scope, " \t\r\n=") {
		return fmt.Errorf("fault: plan scope %q must not contain whitespace or '='", p.Scope)
	}
	if len(p.Injectors) == 0 {
		return fmt.Errorf("fault: plan %s has no injectors", p.Name)
	}
	for i, inj := range p.Injectors {
		if inj.Kind >= numKinds {
			return fmt.Errorf("fault: injector %d: unknown kind %d", i, inj.Kind)
		}
		if inj.Class >= numClasses {
			return fmt.Errorf("fault: injector %d: unknown class %d", i, inj.Class)
		}
		if inj.Gap <= 0 {
			return fmt.Errorf("fault: injector %d: gap must be positive", i)
		}
		if inj.MinDur <= 0 || inj.MaxDur < inj.MinDur {
			return fmt.Errorf("fault: injector %d: need 0 < min <= max", i)
		}
		if !(inj.Alpha > 0) || inj.Alpha > 64 {
			return fmt.Errorf("fault: injector %d: alpha must be in (0, 64]", i)
		}
	}
	return nil
}

// Sig returns a short deterministic signature for job keys: the plan name
// plus a hash of the canonical encoding, so two plans sharing a name but
// differing in content never collide under runner.SweepOn's unique-key rule.
func (p *Plan) Sig() string {
	h := fnv.New64a()
	h.Write([]byte(p.Encode()))
	return fmt.Sprintf("%s-%08x", p.Name, h.Sum64()&0xffffffff)
}
