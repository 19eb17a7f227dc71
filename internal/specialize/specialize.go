package specialize

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"ksa/internal/corpus"
	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
)

// Profile is what a corpus was observed to reach: the input to Specialize.
// All slices are sorted; the struct's Canonical encoding is the identity
// the Sig is computed over.
type Profile struct {
	// Syscalls are the reached syscall names, sorted. Corpus programs have
	// no control flow — every call of every program executes — so the
	// reached set is exact, not sampled.
	Syscalls []string
	// TableSize is the syscall table size at profiling time (the
	// denominator of the reduction ratio).
	TableSize int

	// Locks are the touched lock slabs by canonical trace name, sorted.
	// Sharded families appear as one name ("inode[*]"): shard indices
	// depend on per-process salts and core counts the profiling kernel
	// does not share with the target environment, so retention is
	// family-granular.
	Locks []string

	// Footprint high-water marks across all profiled processes: descriptor
	// table size, live memory mappings, and program break growth (KB).
	MaxFDs  int
	MaxVMAs int
	BrkKB   uint64

	// Subsystem usage flags observed during profiling.
	UsesIPI     bool
	UsesBlockIO bool
	UsesSleep   bool

	// Calls is the corpus's total call-site count.
	Calls int
}

// Canonical returns the deterministic text encoding of the profile — the
// bytes Sig hashes. Same corpus + same seed ⇒ byte-identical output.
func (p *Profile) Canonical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile v1\n")
	fmt.Fprintf(&sb, "table %d\n", p.TableSize)
	fmt.Fprintf(&sb, "calls %d\n", p.Calls)
	for _, s := range p.Syscalls {
		fmt.Fprintf(&sb, "syscall %s\n", s)
	}
	for _, l := range p.Locks {
		fmt.Fprintf(&sb, "lock %s\n", l)
	}
	fmt.Fprintf(&sb, "footprint fds=%d vmas=%d brkkb=%d\n", p.MaxFDs, p.MaxVMAs, p.BrkKB)
	fmt.Fprintf(&sb, "uses ipi=%t blockio=%t sleep=%t\n", p.UsesIPI, p.UsesBlockIO, p.UsesSleep)
	return sb.String()
}

// Sig returns the profile's stable signature: the first 16 hex digits of
// the SHA-256 of the canonical encoding. It keys cache entries (via the
// environment fingerprint), so two different profiles can never share a
// specialized kernel's cached results.
func (p *Profile) Sig() string {
	h := sha256.Sum256([]byte(p.Canonical()))
	return hex.EncodeToString(h[:])[:16]
}

// defaultProfilePasses is how many observation passes ProfileCorpus runs
// when the caller passes 0. Branches inside syscall compilation draw from
// the kernel's seeded rng, so a second pass with a split seed widens lock
// coverage the way a second profiling run of a real workload would.
const defaultProfilePasses = 2

// ProfileCorpus derives the corpus's profile deterministically: the
// reached syscall set is read statically from the programs (every call
// executes), while touched locks, footprint marks, and subsystem usage are
// observed by replaying the corpus on an instrumented single-core kernel
// for the given number of passes (0 = default), each pass seeded from a
// split of seed. A nil table means syscalls.Default().
func ProfileCorpus(c *corpus.Corpus, tab *syscalls.Table, seed uint64, passes int) *Profile {
	if tab == nil {
		tab = syscalls.Default()
	}
	if passes <= 0 {
		passes = defaultProfilePasses
	}
	p := &Profile{TableSize: tab.Len(), Calls: c.NumCalls()}

	// Phase 1a: the reached syscall set, statically.
	reached := map[string]bool{}
	for _, prog := range c.Programs {
		for _, call := range prog.Calls {
			reached[tab.Get(call.Syscall).Name] = true
		}
	}
	p.Syscalls = make([]string, 0, len(reached))
	for name := range reached {
		p.Syscalls = append(p.Syscalls, name)
	}
	sort.Strings(p.Syscalls)

	// Phase 1b: observed locks, footprint, and subsystem usage, by replay.
	touched := map[string]bool{}
	src := rng.New(seed)
	for pass := 0; pass < passes; pass++ {
		k, stats := observePass(c, tab, src.Split(uint64(pass)+1), p)
		for id := kernel.LockID(0); id < kernel.LockID(kernel.NumLocks()); id++ {
			if k.LockStats(id).Acquires > 0 {
				touched[kernel.TraceLockName(id)] = true
			}
		}
		p.UsesIPI = p.UsesIPI || stats.IPIs > 0
		p.UsesBlockIO = p.UsesBlockIO || stats.BlockIOs > 0
		p.UsesSleep = p.UsesSleep || stats.Sleeps > 0
	}
	p.Locks = make([]string, 0, len(touched))
	for name := range touched {
		p.Locks = append(p.Locks, name)
	}
	sort.Strings(p.Locks)
	return p
}

// observePass replays the corpus once, program by program, on a fresh
// quiet single-core kernel and folds footprint high-water marks into p.
// Quiet disables the (lock-free) noise machinery — irrelevant to what the
// workload touches — so profiling costs a single sequential corpus replay.
func observePass(c *corpus.Corpus, tab *syscalls.Table, src *rng.Source, p *Profile) (*kernel.Kernel, kernel.Stats) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.Config{
		Name:   "profiler",
		Cores:  1,
		MemGB:  0.5,
		Params: kernel.Params{Quiet: true},
	}, src)
	r := corpus.NewRunner(eng, k, 0, tab)
	var runProg func(i int)
	runProg = func(i int) {
		if i >= len(c.Programs) {
			return
		}
		r.ResetProc()
		r.Run(c.Programs[i], nil, func() {
			if n := r.Proc.NumFDs(); n > p.MaxFDs {
				p.MaxFDs = n
			}
			if r.Proc.VMAs > p.MaxVMAs {
				p.MaxVMAs = r.Proc.VMAs
			}
			// NewProc starts the break at 1 MB; growth above that is the
			// workload's own heap footprint.
			if grown := r.Proc.Brk >> 10; grown > p.BrkKB {
				p.BrkKB = grown
			}
			runProg(i + 1)
		})
	}
	runProg(0)
	eng.Run()
	return k, k.Stats()
}

// Specialize generates the reduced kernel configuration for a profile:
// exactly the reached syscalls mapped, exactly the touched lock slabs
// retained (family-granular), housekeeping scaled to the retained surface
// fraction, and the cache working set shrunk to the profiled footprint. A
// nil table means syscalls.Default().
func Specialize(p *Profile, tab *syscalls.Table) *kernel.Reduction {
	if tab == nil {
		tab = syscalls.Default()
	}
	red := kernel.NewReduction(tab.Len())
	for _, name := range p.Syscalls {
		if spec := tab.Lookup(name); spec != nil {
			red.MapSyscall(uint16(spec.ID()))
		}
	}
	for _, name := range p.Locks {
		red.RetainTraceName(name)
	}

	// Housekeeping daemons track the retained surface: half weighted by the
	// syscall-table fraction (fewer subsystems generating dirty state), half
	// by the lock-slab fraction (fewer structures to scan/reap), floored so
	// a tiny profile still pays the irreducible base (timers, RCU).
	sysFrac := float64(red.MappedSyscalls) / float64(max(1, red.NumSyscalls))
	lockFrac := float64(red.RetainedLocks) / float64(max(1, kernel.NumLocks()))
	hk := 0.5*sysFrac + 0.5*lockFrac
	red.HousekeepingScale = clamp(hk, 0.25, 1)

	// The cache working set shrinks to the profiled footprint: descriptor
	// and mapping counts plus break growth, normalized against the working
	// set a full-surface kernel is provisioned for. The scale feeds only
	// the noise-parameter derivation (effective managed memory), never the
	// cache hit probabilities — those gate rng draws in compiled op
	// streams, and changing them would break replay bit-identity.
	foot := float64(p.MaxFDs) + 4*float64(p.MaxVMAs) + float64(p.BrkKB)/1024
	red.MemScale = clamp(foot/256, 0.1, 1)
	return red
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
