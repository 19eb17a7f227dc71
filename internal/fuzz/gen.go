package fuzz

import (
	"ksa/internal/corpus"
	"ksa/internal/rng"
	"ksa/internal/syscalls"
)

// Generator synthesizes and mutates syscall programs.
type Generator struct {
	tab *syscalls.Table
	src *rng.Source
	// MaxCalls bounds program length.
	MaxCalls int
}

// NewGenerator returns a generator over the given table.
func NewGenerator(tab *syscalls.Table, src *rng.Source, maxCalls int) *Generator {
	if maxCalls < 1 {
		maxCalls = 12
	}
	return &Generator{tab: tab, src: src, MaxCalls: maxCalls}
}

// pickSpec chooses a syscall weighted by the specs' generation weights.
func (g *Generator) pickSpec() *syscalls.Spec {
	specs := g.tab.All()
	weights := make([]float64, len(specs))
	for i, s := range specs {
		weights[i] = s.Weight
	}
	return specs[rng.WeightedPick(g.src, weights)]
}

// genArg produces a value for one argument slot, optionally wiring it to an
// earlier resource-producing call.
func (g *Generator) genArg(p *corpus.Program, at int, spec syscalls.ArgSpec) corpus.ArgValue {
	if spec.Kind == syscalls.ArgFD && g.src.Bool(0.5) {
		// Prefer a result reference to an earlier fd-producing call.
		var producers []int
		for i := 0; i < at; i++ {
			if g.tab.Get(p.Calls[i].Syscall).Returns == syscalls.ResFD {
				producers = append(producers, i)
			}
		}
		if len(producers) > 0 {
			return corpus.Result(producers[g.src.Intn(len(producers))])
		}
	}
	dom := spec.GenDomain()
	// Bias toward boundary and structured values, the way template-driven
	// fuzzers do; uniform otherwise.
	switch g.src.Intn(5) {
	case 0:
		return corpus.Const(0)
	case 1:
		return corpus.Const(dom - 1)
	case 2:
		bit := uint(g.src.Intn(16))
		return corpus.Const((uint64(1) << bit) % dom)
	default:
		return corpus.Const(g.src.Uint64() % dom)
	}
}

// RandomProgram synthesizes a fresh program of 1..MaxCalls calls. Calls
// that take buffers are frequently preceded by a small mmap that allocates
// the buffer — the same boilerplate Syzkaller emits, and the reason the
// paper's corpus is dominated by sub-10µs mmap calls.
func (g *Generator) RandomProgram() *corpus.Program {
	n := 1 + g.src.Intn(g.MaxCalls)
	p := &corpus.Program{}
	mmap := g.tab.Lookup("mmap")
	for len(p.Calls) < n {
		spec := g.pickSpec()
		if mmap != nil && spec.Name != "mmap" && len(p.Calls)+1 < g.MaxCalls &&
			takesBuffer(spec) && g.src.Bool(0.6) {
			p.Calls = append(p.Calls, corpus.Call{
				Syscall: mmap.ID(),
				Args:    []corpus.ArgValue{corpus.Const(4096), corpus.Const(0)},
			})
		}
		at := len(p.Calls)
		call := corpus.Call{Syscall: spec.ID()}
		for _, a := range spec.Args {
			call.Args = append(call.Args, g.genArg(p, at, a))
		}
		p.Calls = append(p.Calls, call)
	}
	return p
}

// takesBuffer reports whether the spec has a byte-count argument (and
// therefore reads or writes a user buffer).
func takesBuffer(spec *syscalls.Spec) bool {
	for _, a := range spec.Args {
		if a.Kind == syscalls.ArgSize {
			return true
		}
	}
	return false
}

// Mutate returns a mutated copy of p using one of four operators: insert a
// call, remove a call, rewrite one argument, or splice a fragment of donor
// (which may be nil). Result references are remapped or constant-folded so
// the output always validates.
func (g *Generator) Mutate(p *corpus.Program, donor *corpus.Program) *corpus.Program {
	q := p.Clone()
	op := g.src.Intn(4)
	if len(q.Calls) == 0 {
		op = 0
	}
	switch op {
	case 0: // insert
		if len(q.Calls) < g.MaxCalls {
			at := g.src.Intn(len(q.Calls) + 1)
			spec := g.pickSpec()
			call := corpus.Call{Syscall: spec.ID()}
			for _, a := range spec.Args {
				call.Args = append(call.Args, g.genArg(q, at, a))
			}
			q.Calls = append(q.Calls, corpus.Call{})
			copy(q.Calls[at+1:], q.Calls[at:])
			q.Calls[at] = call
			shiftRefs(q, at+1, 1)
		}
	case 1: // remove
		at := g.src.Intn(len(q.Calls))
		copy(q.Calls[at:], q.Calls[at+1:])
		q.Calls = q.Calls[:len(q.Calls)-1]
		dropRefsTo(q, at)
		shiftRefs(q, at, -1)
	case 2: // rewrite one argument
		at := g.src.Intn(len(q.Calls))
		spec := g.tab.Get(q.Calls[at].Syscall)
		if len(spec.Args) > 0 {
			ai := g.src.Intn(len(spec.Args))
			for len(q.Calls[at].Args) <= ai {
				q.Calls[at].Args = append(q.Calls[at].Args, corpus.Const(0))
			}
			q.Calls[at].Args[ai] = g.genArg(q, at, spec.Args[ai])
		}
	case 3: // splice a donor fragment onto the tail
		if donor != nil && len(donor.Calls) > 0 {
			frag := donor.Clone()
			keep := 1 + g.src.Intn(len(frag.Calls))
			frag.Calls = frag.Calls[:keep]
			base := len(q.Calls)
			for _, c := range frag.Calls {
				nc := corpus.Call{Syscall: c.Syscall, Args: append([]corpus.ArgValue(nil), c.Args...)}
				for j, a := range nc.Args {
					if a.Kind == corpus.ValResult {
						nc.Args[j] = corpus.Result(int(a.X) + base)
					}
				}
				q.Calls = append(q.Calls, nc)
			}
			if len(q.Calls) > g.MaxCalls {
				q.Calls = q.Calls[:g.MaxCalls]
			}
		}
	}
	q.FixupResults(g.tab)
	return q
}

// shiftRefs adjusts result references that point at or beyond from by
// delta (used after insert/remove).
func shiftRefs(p *corpus.Program, from, delta int) {
	for i := range p.Calls {
		for j, a := range p.Calls[i].Args {
			if a.Kind == corpus.ValResult && int(a.X) >= from {
				p.Calls[i].Args[j] = corpus.Result(int(a.X) + delta)
			}
		}
	}
}

// dropRefsTo constant-folds references to the removed call index.
func dropRefsTo(p *corpus.Program, removed int) {
	for i := range p.Calls {
		for j, a := range p.Calls[i].Args {
			if a.Kind == corpus.ValResult && int(a.X) == removed {
				p.Calls[i].Args[j] = corpus.Const(0)
			}
		}
	}
}
