package syscalls

import (
	"fmt"

	"ksa/internal/kernel"
)

// ID identifies a syscall in the table. IDs are assigned sequentially when
// the table is built and are stable for a given library version.
type ID uint16

// ResKind describes what a syscall returns, for result wiring in corpus
// programs (Syzkaller-style resource passing).
type ResKind uint8

// Result kinds.
const (
	ResNone ResKind = iota
	ResFD           // the return value is a descriptor table index
)

// ArgKind drives argument generation and mutation in the fuzzer, and
// interpretation during compilation.
type ArgKind uint8

// Argument kinds.
const (
	ArgConst  ArgKind = iota // opaque scalar; Domain bounds it
	ArgFD                    // descriptor table index (resolved modulo table size)
	ArgPath                  // path identity (small int; selects dentry locality)
	ArgSize                  // byte count; Domain is the max
	ArgFlags                 // bitmask; Domain is the largest meaningful mask
	ArgMode                  // file mode bits
	ArgPID                   // process id selector
	ArgSig                   // signal number
	ArgUID                   // user id
	ArgAddr                  // address-ish value
	ArgMicros                // duration in microseconds; Domain is the max
)

// ArgSpec describes one argument's generation domain.
type ArgSpec struct {
	Name   string
	Kind   ArgKind
	Domain uint64 // generation modulus / max; 0 means full 16-bit range
}

// GenDomain returns the effective generation modulus.
func (a ArgSpec) GenDomain() uint64 {
	if a.Domain == 0 {
		return 1 << 16
	}
	return a.Domain
}

// CompileFunc turns arguments plus process state into micro-ops, appending
// them to l, and returns the call's result value (meaningful when the
// spec's Returns is not ResNone). A compiler only appends: the caller owns
// l, resets it between calls and may reuse it, so a compiler keeps no
// reference to l or its ops.
type CompileFunc func(ctx *Ctx, l *kernel.OpList, args []uint64) uint64

// Spec is one syscall's static description.
type Spec struct {
	id      ID
	Name    string
	Cats    Category
	Args    []ArgSpec
	Returns ResKind
	// Weight biases generation frequency (1.0 default; heavy global
	// operations like sync use smaller weights, as they are rare in real
	// corpuses too).
	Weight  float64
	compile CompileFunc
}

// ID returns the spec's table id.
func (s *Spec) ID() ID { return s.id }

// withWeight sets a spec's generation weight in-place and returns it, for
// use in table-literal construction.
func withWeight(s *Spec, w float64) *Spec {
	s.Weight = w
	return s
}

// Compile appends the call's micro-ops to l, with coverage attribution set
// up, and returns its result. Missing arguments are zero-filled, extras are
// ignored, and every argument is reduced into its declared generation
// domain so that arbitrary raw values (from mutation or adversarial
// corpuses) cannot produce out-of-model costs.
func (s *Spec) Compile(ctx *Ctx, l *kernel.OpList, args []uint64) uint64 {
	full := make([]uint64, len(s.Args))
	copy(full, args)
	for i, a := range s.Args {
		full[i] %= a.GenDomain()
	}
	return s.CompilePrepared(ctx, l, full)
}

// CompilePrepared is Compile for an argument slice the caller has already
// materialized: exactly len(s.Args) values, each reduced into its declared
// generation domain. It is the allocation-free fast path behind the corpus
// runner, which plans that materialization once per program, and behind
// tailbench's requests; Compile remains the forgiving entry point for raw
// argument lists. The slice is borrowed only for the duration of the call.
func (s *Spec) CompilePrepared(ctx *Ctx, l *kernel.OpList, full []uint64) uint64 {
	if len(full) != len(s.Args) {
		panic(fmt.Sprintf("syscalls: %s: prepared args len %d, want %d", s.Name, len(full), len(s.Args)))
	}
	ctx.callID = s.id
	return s.compile(ctx, l, full)
}

// Table is the assembled syscall table.
type Table struct {
	specs  []*Spec
	byName map[string]*Spec
}

// defaultTable is built once; the table is immutable after construction.
var defaultTable = buildTable()

// Default returns the library's syscall table.
func Default() *Table { return defaultTable }

func buildTable() *Table {
	t := &Table{byName: make(map[string]*Spec)}
	groups := [][]*Spec{
		procSpecs(),
		memSpecs(),
		fileIOSpecs(),
		fsSpecs(),
		ipcSpecs(),
		permSpecs(),
		netSpecs(),
		miscSpecs(),
		misc2Specs(),
	}
	for _, g := range groups {
		for _, s := range g {
			s.id = ID(len(t.specs))
			if s.Weight == 0 {
				s.Weight = 1
			}
			if _, dup := t.byName[s.Name]; dup {
				panic("syscalls: duplicate spec " + s.Name)
			}
			t.specs = append(t.specs, s)
			t.byName[s.Name] = s
		}
	}
	return t
}

// Len returns the number of syscalls in the table.
func (t *Table) Len() int { return len(t.specs) }

// Get returns the spec with the given id.
func (t *Table) Get(id ID) *Spec {
	if int(id) >= len(t.specs) {
		panic(fmt.Sprintf("syscalls: id %d out of range (%d)", id, len(t.specs)))
	}
	return t.specs[id]
}

// Lookup returns the spec with the given name, or nil.
func (t *Table) Lookup(name string) *Spec { return t.byName[name] }

// All returns the specs in id order. The slice is shared; do not modify.
func (t *Table) All() []*Spec { return t.specs }
