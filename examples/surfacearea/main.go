// Surfacearea sweeps the kernel surface area the way Figure 2 does: the
// same syscall corpus runs on 1, 4, 16, and 64 VM partitions of one
// machine, and the per-category p99 distributions show which kernel
// subsystems benefit from smaller surface areas (memory management
// drastically, filesystem/process tails substantially, file I/O not at
// all).
package main

import (
	"context"
	"fmt"

	"ksa"
)

func main() {
	sc := ksa.DefaultScale()
	sc.CorpusPrograms = 40
	sc.Iterations = 10

	fmt.Println("sweeping VM counts 1 -> 64 over a 64-core machine;")
	fmt.Println("each row is the distribution of per-call-site p99 latencies (µs)")
	fmt.Println()

	// Runners fail only when their context is cancelled; this one never is.
	res, _ := ksa.RunFigure2(context.Background(), sc)
	fmt.Println(res.Render())

	// Headline numbers: memory management's drastic uniprocessor benefit.
	for ci, cat := range res.Categories {
		if cat != "mem" {
			continue
		}
		first := res.Violins[ci][0]
		last := res.Violins[ci][len(res.Violins[ci])-1]
		if first.N == 0 || last.N == 0 || last.Median == 0 {
			continue
		}
		fmt.Printf("memory management median p99: %.0fµs at 1 VM -> %.0fµs at 64 VMs (%.0fx)\n",
			first.Median, last.Median, first.Median/last.Median)
	}
}
