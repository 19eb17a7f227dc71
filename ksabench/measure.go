package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// minTail is how many ops must lie beyond a percentile before it is
// reported: fewer makes a tail figure one or two samples deep.
const minTail = 10

// readHeap reads one cumulative runtime/metrics value.
func readHeap(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAllocBytes is the runtime's cumulative heap allocation, the figure
// MemStats.TotalAlloc reports, read without stopping the world.
func heapAllocBytes() uint64 { return readHeap("/gc/heap/allocs:bytes") }

// heapLiveBytes is the live heap as the collector last marked it; unlike
// HeapInuse it holds no garbage waiting to be swept.
func heapLiveBytes() uint64 { return readHeap("/gc/heap/live:bytes") }

// quantile returns the q-quantile of sorted by linear interpolation
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// tailQuantile returns the q-quantile of sorted and whether at least
// minTail samples lie strictly beyond it; without them the figure is not
// reported.
func tailQuantile(sorted []float64, q float64) (float64, bool) {
	v := quantile(sorted, q)
	beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return v, beyond >= minTail
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// check verifies one op's output once the op has returned, outside its
// timed interval, and returns the bytes that stand for the output in the
// run's digest.
type check func() ([]byte, error)

// phase is the outcome of running a stretch of the op sequence.
type phase struct {
	latMs   []float64 // per-op wall latency, in sequence order
	wallS   float64   // summed op wall time (checks between ops excluded)
	allocB  uint64    // heap bytes allocated inside ops
	liveMiB []float64 // live heap at each op boundary
	failed  int
	digests [][32]byte // per-op output digest (zero for a failed op)
}

// runOps runs ops [from, to) closed-loop, one in flight at a time, timing
// each from its call to its return. A failed op or check is counted and
// reported on stderr; it does not stop the sequence.
func runOps(from, to int, op func(i int) (check, error)) phase {
	var p phase
	for i := from; i < to; i++ {
		a0 := heapAllocBytes()
		t0 := time.Now()
		chk, err := op(i)
		d := time.Since(t0)
		p.allocB += heapAllocBytes() - a0
		p.latMs = append(p.latMs, float64(d)/1e6)
		p.wallS += d.Seconds()
		p.liveMiB = append(p.liveMiB, float64(heapLiveBytes())/mib)
		var out []byte
		if err == nil {
			out, err = chk()
		}
		var sum [32]byte
		if err != nil {
			p.failed++
			if p.failed <= 5 {
				fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
			}
		} else {
			sum = sha256.Sum256(out)
		}
		p.digests = append(p.digests, sum)
	}
	return p
}
