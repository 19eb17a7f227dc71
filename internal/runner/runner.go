package runner

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// Workers resolves a requested worker count: n when positive, otherwise
// GOMAXPROCS (the orchestrator's default — one worker per schedulable
// thread).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// DeriveSeed hashes a job key into the root experiment seed, yielding the
// job's private seed. The derivation is position-independent (a job's seed
// depends only on root and key) and uses explicit 64-bit arithmetic
// (FNV-1a over the root's little-endian bytes then the key bytes, with a
// splitmix64 finalizer), so it is stable across platforms and word sizes.
// The result is never zero — zero is the repo-wide "unset seed" sentinel.
func DeriveSeed(root uint64, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ (root>>(8*i))&0xff) * prime64
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}

// Metrics describes one fan-out's execution: how many jobs ran on how many
// workers, the sweep's wall time, and per-job wall/queue times. All
// durations are host time (never virtual time) — they exist to make
// speedup observable, and feed nothing back into any simulation.
type Metrics struct {
	// Jobs is the number of jobs executed.
	Jobs int
	// Workers is the resolved worker count (after the GOMAXPROCS default
	// and the cap at Jobs).
	Workers int
	// Wall is the total host time from first dispatch to last completion.
	Wall time.Duration
	// JobWall[i] is job i's execution time.
	JobWall []time.Duration
	// QueueWait[i] is how long job i sat queued before a worker picked it
	// up, measured from the fan-out's start.
	QueueWait []time.Duration

	// Completed is how many jobs actually ran. Jobs are always claimed in
	// index order and a claimed job is never abandoned, so the completed
	// set is exactly the prefix [0, Completed) — the foundation of the
	// cancel-then-resume contract. Equal to Jobs unless the fan-out's
	// context was cancelled.
	Completed int

	// Result-cache accounting, filled by orchestrators whose jobs consult
	// the content-addressed store (internal/resultcache) from their own
	// cells' hit flags: how many store lookups were served and how many
	// missed and simulated. All zero for uncached fan-outs.
	CacheHits   int
	CacheMisses int
}

// Busy is the summed per-job execution time — the serial-equivalent cost.
func (m Metrics) Busy() time.Duration {
	var b time.Duration
	for _, d := range m.JobWall {
		b += d
	}
	return b
}

// Speedup is Busy/Wall: how much faster the fan-out ran than the same jobs
// executed back to back. 1.0 means no overlap was achieved.
func (m Metrics) Speedup() float64 {
	if m.Wall <= 0 {
		return 1
	}
	return float64(m.Busy()) / float64(m.Wall)
}

// MaxQueueWait is the longest any job waited for a worker.
func (m Metrics) MaxQueueWait() time.Duration {
	var w time.Duration
	for _, d := range m.QueueWait {
		if d > w {
			w = d
		}
	}
	return w
}

// String summarizes the fan-out for CLI output, including cache
// effectiveness when any job touched the result store.
func (m Metrics) String() string {
	cache := ""
	if m.CacheHits+m.CacheMisses > 0 {
		cache = fmt.Sprintf(", cache %d/%d hits", m.CacheHits, m.CacheHits+m.CacheMisses)
	}
	return fmt.Sprintf("runner[%d jobs on %d workers: wall %v, busy %v, speedup %.2fx, max queue wait %v%s]",
		m.Jobs, m.Workers, m.Wall.Round(time.Millisecond), m.Busy().Round(time.Millisecond),
		m.Speedup(), m.MaxQueueWait().Round(time.Millisecond), cache)
}

// MapOn runs fn for each job index on pool at priority and returns the
// results in job order, never completion order. On cancellation the
// returned error is non-nil and only the completed prefix of out holds
// results — the rest are zero values.
func MapOn[T any](ctx context.Context, pool *Pool, priority, n int, fn func(job int) T) ([]T, Metrics, error) {
	out := make([]T, n)
	m, err := pool.Do(ctx, priority, n, func(i int) {
		out[i] = fn(i)
	})
	return out, m, err
}
