package fuzz

import (
	"strings"
	"testing"
	"testing/quick"

	"ksa/internal/corpus"
	"ksa/internal/rng"
	"ksa/internal/syscalls"
)

func TestCoverageSetOps(t *testing.T) {
	a, b := NewCoverage(), NewCoverage()
	a.Hit(1)
	a.Hit(2)
	b.Hit(2)
	b.Hit(3)
	if a.Len() != 2 || !a.Has(1) || a.Has(3) {
		t.Fatal("basic set ops wrong")
	}
	nb := a.NewBlocks(b)
	if len(nb) != 1 || nb[0] != 3 {
		t.Fatalf("NewBlocks = %v", nb)
	}
	if got := a.Merge(b); got != 1 {
		t.Fatalf("Merge added %d", got)
	}
	if !a.ContainsAll([]uint32{1, 2, 3}) {
		t.Fatal("ContainsAll after merge")
	}
	if a.ContainsAll([]uint32{4}) {
		t.Fatal("ContainsAll false positive")
	}
}

func TestRandomProgramValid(t *testing.T) {
	tab := syscalls.Default()
	g := NewGenerator(tab, rng.New(1), 10)
	for i := 0; i < 200; i++ {
		p := g.RandomProgram()
		if p.Len() == 0 || p.Len() > 10 {
			t.Fatalf("program length %d", p.Len())
		}
		if err := p.Validate(tab); err != nil {
			t.Fatalf("invalid program: %v\n%s", err, p)
		}
	}
}

// Property: mutation preserves validity for any seed and any operator
// sequence.
func TestMutateValidProperty(t *testing.T) {
	tab := syscalls.Default()
	if err := quick.Check(func(seed uint32, rounds uint8) bool {
		g := NewGenerator(tab, rng.New(uint64(seed)), 12)
		p := g.RandomProgram()
		donor := g.RandomProgram()
		for r := 0; r < int(rounds%20)+1; r++ {
			p = g.Mutate(p, donor)
			if err := p.Validate(tab); err != nil {
				return false
			}
			if p.Len() > 12+1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMutateProducesChanges(t *testing.T) {
	tab := syscalls.Default()
	g := NewGenerator(tab, rng.New(7), 10)
	p := g.RandomProgram()
	changed := 0
	for i := 0; i < 50; i++ {
		q := g.Mutate(p, nil)
		if q.String() != p.String() {
			changed++
		}
	}
	if changed < 25 {
		t.Fatalf("only %d/50 mutations changed the program", changed)
	}
}

func TestCoverageOfDeterministic(t *testing.T) {
	tab := syscalls.Default()
	g := NewGenerator(tab, rng.New(3), 10)
	p := g.RandomProgram()
	a := coverageOf(p, tab, 99)
	b := coverageOf(p, tab, 99)
	if a.Len() != b.Len() || len(a.NewBlocks(b)) != 0 {
		t.Fatal("coverage evaluation not deterministic")
	}
}

func TestGenerateBuildsCorpus(t *testing.T) {
	opts := NewOptions(42)
	opts.TargetPrograms = 20
	c, stats := Generate(opts)
	if len(c.Programs) != 20 {
		t.Fatalf("corpus has %d programs, want 20", len(c.Programs))
	}
	if stats.Kept != 20 || stats.TotalBlocks == 0 || stats.TotalCalls == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	tab := syscalls.Default()
	for i, p := range c.Programs {
		if err := p.Validate(tab); err != nil {
			t.Fatalf("program %d invalid: %v", i, err)
		}
	}
}

func TestGenerateIsReproducible(t *testing.T) {
	opts := NewOptions(1234)
	opts.TargetPrograms = 10
	c1, _ := Generate(opts)
	c2, _ := Generate(opts)
	var s1, s2 strings.Builder
	if err := corpus.WriteText(&s1, c1, syscalls.Default()); err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteText(&s2, c2, syscalls.Default()); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("same seed produced different corpuses")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(Options{Seed: 1, TargetPrograms: 8})
	b, _ := Generate(Options{Seed: 2, TargetPrograms: 8})
	var sa, sb strings.Builder
	_ = corpus.WriteText(&sa, a, syscalls.Default())
	_ = corpus.WriteText(&sb, b, syscalls.Default())
	if sa.String() == sb.String() {
		t.Fatal("different seeds produced identical corpuses")
	}
}

func TestEveryKeptProgramAddsCoverage(t *testing.T) {
	opts := NewOptions(5)
	opts.TargetPrograms = 15
	c, _ := Generate(opts)
	tab := syscalls.Default()
	// Replaying the corpus in order: each program must add blocks over the
	// union of its predecessors (that is the keep criterion).
	evalSeed := func() uint64 {
		// Reconstruct the eval seed the generator used.
		src := rng.New(opts.Seed)
		src.Split(1)
		return src.Uint64()
	}()
	global := NewCoverage()
	for i, p := range c.Programs {
		cov := coverageOf(p, tab, evalSeed)
		if n := global.Merge(cov); n == 0 {
			t.Fatalf("program %d added no coverage", i)
		}
	}
}

func TestMinimizationShrinks(t *testing.T) {
	withMin := NewOptions(77)
	withMin.TargetPrograms = 15
	noMin := withMin
	noMin.Minimize = false
	cm, sm := Generate(withMin)
	cn, _ := Generate(noMin)
	if sm.Minimized == 0 {
		t.Fatal("minimization removed no calls at all")
	}
	avg := func(c *corpus.Corpus) float64 {
		return float64(c.NumCalls()) / float64(len(c.Programs))
	}
	if avg(cm) >= avg(cn)+1 {
		t.Fatalf("minimized corpus not smaller: %.1f vs %.1f calls/program", avg(cm), avg(cn))
	}
}

func TestCorpusCoversAllCategories(t *testing.T) {
	opts := NewOptions(9)
	opts.TargetPrograms = 60
	c, _ := Generate(opts)
	tab := syscalls.Default()
	var mask syscalls.Category
	for _, p := range c.Programs {
		for _, call := range p.Calls {
			mask |= tab.Get(call.Syscall).Cats
		}
	}
	for _, cn := range syscalls.CategoryNames {
		if !mask.Has(cn.Cat) {
			t.Errorf("corpus never touches category %s", cn.Name)
		}
	}
}

func TestGenerateRespectsMaxIters(t *testing.T) {
	c, stats := Generate(Options{Seed: 3, TargetPrograms: 10000, MaxIters: 50})
	if stats.Iterations > 50 {
		t.Fatalf("ran %d iterations past MaxIters", stats.Iterations)
	}
	if len(c.Programs) > 50 {
		t.Fatal("more programs than iterations")
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Options{Seed: uint64(i), TargetPrograms: 10})
	}
}

func BenchmarkCoverageOf(b *testing.B) {
	tab := syscalls.Default()
	g := NewGenerator(tab, rng.New(1), 12)
	p := g.RandomProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverageOf(p, tab, 7)
	}
}
