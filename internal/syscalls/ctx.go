// Package syscalls defines the simulated system-call API: a table of 200
// call specifications across the paper's six categories, each of which
// compiles — given its arguments and the calling process's state — into a
// micro-op sequence for the simulated kernel, emitting coverage blocks as
// it takes branches.
//
// The system-call API is the only vehicle through which workloads can
// invoke the kernel (§3.1 of the paper), so it is also the only interface
// the corpus generator and the varbench harness use.
package syscalls

import (
	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

// Category is a bitmask of the paper's six syscall groups (§5). A call can
// belong to several groups; the paper's example is chmod, both filesystem
// and permission related.
type Category uint8

// The six categories of §5.
const (
	CatProc   Category = 1 << iota // process management / scheduling
	CatMem                         // memory management
	CatFileIO                      // file I/O
	CatFS                          // filesystem management
	CatIPC                         // inter-process communication
	CatPerm                        // permission / capabilities management
)

// CategoryNames lists the categories in the figure order of the paper
// (Figure 2 subfigures a–f).
var CategoryNames = []struct {
	Cat  Category
	Name string
}{
	{CatProc, "proc"},
	{CatMem, "mem"},
	{CatFileIO, "fileio"},
	{CatFS, "fs"},
	{CatIPC, "ipc"},
	{CatPerm, "perm"},
}

// String renders the mask, e.g. "fs|perm".
func (c Category) String() string {
	out := ""
	for _, cn := range CategoryNames {
		if c&cn.Cat != 0 {
			if out != "" {
				out += "|"
			}
			out += cn.Name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// Has reports whether the mask contains cat.
func (c Category) Has(cat Category) bool { return c&cat != 0 }

// FDKind classifies open file descriptors in a simulated process.
type FDKind uint8

// File descriptor kinds.
const (
	FDNone FDKind = iota
	FDFile
	FDPipeRead
	FDPipeWrite
	FDEventFD
	FDEpoll
	FDSocket
	FDTimer
	FDMemFD
)

// FD is one open descriptor.
type FD struct {
	Kind  FDKind
	Inode uint64 // inode number (shards the inode mutex)
	Pipe  uint64 // pipe identity (shards the pipe lock)
}

// Proc is the state of one simulated process: its address space semaphore
// (mmap_sem), descriptor table, mappings, and credentials. Syscall
// compilation both reads and mutates it, exactly as handlers mutate
// task_struct state.
type Proc struct {
	// MM is the process's address-space semaphore, shared by all tasks the
	// process submits.
	MM *sim.RWLock

	// Salt disambiguates this process's kernel-object hashes (dentries,
	// inodes, futexes, pipes): distinct processes passing "the same" path
	// argument usually reach different hash shards, exactly as distinct
	// varbench ranks working in private directories do. Creators set it
	// (e.g. from the core index); zero is valid.
	Salt uint64

	fds       []FD
	nextInode uint64
	nextPipe  uint64
	// VMAs is the number of live memory mappings.
	VMAs int
	// Brk is the current program break (bytes).
	Brk uint64
	// UID is the effective user id (0 = root).
	UID uint64
	// Caps is the effective capability mask.
	Caps uint64
	// Umask is the file-mode creation mask.
	Umask uint64
	// Children is the number of un-reaped child processes.
	Children int
}

// NewProc returns a fresh process with stdin/stdout/stderr-like
// descriptors, an empty address space, and root credentials.
func NewProc(eng *sim.Engine) *Proc {
	p := &Proc{
		MM: sim.NewRWLock(eng, "mm"),
		// Room for stdio plus a typical program's handful of opens in the
		// initial allocation, so append-time growth is rare.
		fds: make([]FD, 0, 8),
	}
	p.Reset()
	return p
}

// Reset returns p to NewProc's state — stdio descriptors, an empty address
// space, root credentials, a zero Salt — as if the program were exec'd
// anew, but keeps its descriptor table's storage and its MM, so a process
// reused across program runs allocates nothing. It panics if MM is held or
// has waiters: only a bug resets a busy address space.
func (p *Proc) Reset() {
	p.MM.Reset()
	*p = Proc{MM: p.MM, fds: p.fds[:0], nextInode: 1, Brk: 1 << 20, Caps: 0xffff}
	for i := 0; i < 3; i++ {
		p.AddFD(FDFile)
	}
}

// AddFD opens a descriptor of the given kind and returns its index. Like a
// real fd table, the lowest free slot is reused.
func (p *Proc) AddFD(kind FDKind) int {
	fd := FD{Kind: kind, Inode: p.nextInode}
	p.nextInode++
	if kind == FDPipeRead || kind == FDPipeWrite {
		fd.Pipe = p.nextPipe
	}
	for i := 3; i < len(p.fds); i++ {
		if p.fds[i].Kind == FDNone {
			p.fds[i] = fd
			return i
		}
	}
	p.fds = append(p.fds, fd)
	return len(p.fds) - 1
}

// AddPipe opens a connected read/write descriptor pair and returns the read
// end's index (the write end is the next index).
func (p *Proc) AddPipe() int {
	p.nextPipe++
	r := p.AddFD(FDPipeRead)
	p.AddFD(FDPipeWrite)
	return r
}

// NumFDs returns the descriptor table size (closed slots included).
func (p *Proc) NumFDs() int { return len(p.fds) }

// LookupFD resolves a raw argument value to a descriptor by table index
// modulo the table size, mirroring how the corpus addresses descriptors.
// It returns the descriptor and its resolved index; a process with an empty
// table returns a zero FD and index -1.
func (p *Proc) LookupFD(arg uint64) (FD, int) {
	if len(p.fds) == 0 {
		return FD{}, -1
	}
	idx := int(arg % uint64(len(p.fds)))
	return p.fds[idx], idx
}

// CloseFD marks the descriptor at table index closed (the slot remains, as
// in a real fd table).
func (p *Proc) CloseFD(idx int) {
	if idx >= 0 && idx < len(p.fds) {
		p.fds[idx] = FD{Kind: FDNone}
	}
}

// CoverageSink receives basic-block hits during syscall compilation; the
// coverage-guided generator uses it the way Syzkaller uses KCOV.
type CoverageSink interface {
	Hit(block uint32)
}

// NopCoverage discards coverage (used by the measurement harness, which
// does not need signals).
type NopCoverage struct{}

// Hit implements CoverageSink.
func (NopCoverage) Hit(uint32) {}

// Ctx carries everything a syscall compilation needs: the target kernel,
// the issuing core, the process, and the coverage sink.
type Ctx struct {
	Kern *kernel.Kernel
	Core int
	Proc *Proc
	Cov  CoverageSink

	// callID is set by the dispatcher so cover() can build block IDs.
	callID ID
}

// cover records that the current call traversed branch b.
func (c *Ctx) cover(b uint8) {
	c.Cov.Hit(uint32(c.callID)<<8 | uint32(b))
}

// rng returns the issuing core's seeded random source.
func (c *Ctx) rng() *rng.Source { return c.Kern.Rng(c.Core) }

// us converts fractional microseconds to sim.Time (compile-helper sugar).
func us(x float64) sim.Time { return sim.FromMicros(x) }
