// Package fuzz implements coverage-guided program generation, the analog of
// the paper's use of Syzkaller (§3.1): candidate syscall programs are
// generated and mutated, their kernel coverage is measured, and only
// programs that reach basic blocks no earlier program reached are kept —
// iteratively building a corpus that stresses a wide slice of the kernel.
//
// Coverage signals come from the simulated syscall handlers (each branch a
// handler takes emits a block id), standing in for KCOV.
package fuzz

// Coverage is a set of covered basic blocks.
type Coverage struct {
	blocks map[uint32]struct{}
}

// NewCoverage returns an empty coverage set.
func NewCoverage() *Coverage {
	return &Coverage{blocks: make(map[uint32]struct{})}
}

// Hit implements syscalls.CoverageSink.
func (c *Coverage) Hit(b uint32) { c.blocks[b] = struct{}{} }

// Len returns the number of distinct blocks covered.
func (c *Coverage) Len() int { return len(c.blocks) }

// Has reports whether block b is covered.
func (c *Coverage) Has(b uint32) bool {
	_, ok := c.blocks[b]
	return ok
}

// Merge adds all of other's blocks to c and returns how many were new.
func (c *Coverage) Merge(other *Coverage) int {
	n := 0
	for b := range other.blocks {
		if _, ok := c.blocks[b]; !ok {
			c.blocks[b] = struct{}{}
			n++
		}
	}
	return n
}

// NewBlocks returns other's blocks that are not in c.
func (c *Coverage) NewBlocks(other *Coverage) []uint32 {
	var out []uint32
	for b := range other.blocks {
		if _, ok := c.blocks[b]; !ok {
			out = append(out, b)
		}
	}
	return out
}

// ContainsAll reports whether c covers every block in blocks.
func (c *Coverage) ContainsAll(blocks []uint32) bool {
	for _, b := range blocks {
		if _, ok := c.blocks[b]; !ok {
			return false
		}
	}
	return true
}
