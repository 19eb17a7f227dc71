// Distributed sweep mode (-exp sweep): shard an environment × trial grid
// across worker processes and print the merged table, its digest, and the
// dispatch accounting. Workers are either running daemons (-worker-urls)
// or ksad processes spawned for the duration of the run (-workers N),
// sharing the -cache directory so completed cells are visible fleet-wide
// and a rerun resumes from disk.
package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ksa"
)

// runSerialSweep is the -exp sweep -serial entry point: the same grid,
// executed in-process on one worker — the independent oracle whose digest
// every distributed run must reproduce. With -cache it reads and writes
// the same store the worker fleet shares, so it doubles as the
// resume-after-chaos checker (a complete cache makes it all hits).
func runSerialSweep(o ksa.SweepOptions, cache *ksa.ResultCache) {
	o.Scale.Parallel = 1
	o.Scale.Cache = cache
	t0 := time.Now()
	// Runners fail only when their context is cancelled; this one never is.
	res, _ := ksa.RunSweep(context.Background(), o)
	fmt.Println(res.Render())
	fmt.Printf("digest: %s\n", res.Digest())
	fmt.Printf("[sweep finished in %v — serial, %d cache hit(s)]\n",
		time.Since(t0).Round(time.Millisecond), res.Par.CacheHits)
}

// resolveWorkerBin locates the ksad binary for -workers: an explicit
// -worker-bin wins, then a ksad next to this executable, then $PATH.
func resolveWorkerBin(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(exe), "ksad")
		if _, err := os.Stat(sib); err == nil {
			return sib, nil
		}
	}
	if p, err := exec.LookPath("ksad"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("no ksad binary found (build cmd/ksad or pass -worker-bin)")
}

// runDistributedSweep is the -exp sweep entry point: spec has resolved
// (main checked it), and the coordinator resolves it again to the same
// cells.
func runDistributedSweep(spec ksa.SweepSpec, workerURLs string, workers int, workerBin, cacheDir string) {
	var urls []string
	if workerURLs != "" {
		for _, u := range strings.Split(workerURLs, ",") {
			urls = append(urls, strings.TrimSpace(u))
		}
	}
	if workers > 0 {
		bin, err := resolveWorkerBin(workerBin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(2)
		}
		fleet, err := ksa.SpawnWorkerFleet(workers, func(int) *exec.Cmd {
			args := []string{"-listen", "127.0.0.1:0", "-quiet"}
			if cacheDir != "" && cacheDir != "off" {
				args = append(args, "-cache", cacheDir)
			}
			return exec.Command(bin, args...)
		}, 15*time.Second, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksaexp:", err)
			os.Exit(1)
		}
		defer fleet.Stop()
		urls = append(urls, fleet.URLs()...)
		fmt.Fprintf(os.Stderr, "ksaexp: spawned %d worker(s): %s\n",
			workers, strings.Join(fleet.URLs(), " "))
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "ksaexp: -exp sweep needs -workers N and/or -worker-urls")
		os.Exit(2)
	}

	t0 := time.Now()
	res, err := ksa.RunDistSweep(context.Background(), ksa.DistSweepOptions{
		Spec:    spec,
		Workers: urls,
		Owner:   "ksaexp-" + strconv.Itoa(os.Getpid()),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ksaexp: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksaexp:", err)
		os.Exit(1)
	}
	fmt.Println(res.Sweep.Render())
	fmt.Printf("digest: %s\n", res.Sweep.Digest())
	fmt.Printf("[sweep finished in %v — %s, %d remote cache hit(s)]\n",
		time.Since(t0).Round(time.Millisecond), res.Dispatch, res.RemoteHits)
}
