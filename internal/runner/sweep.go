package runner

import (
	"context"
	"fmt"
)

// Job is one keyed unit of a sweep. Key is the job's stable identity — it
// orders nothing by itself (results follow the job list's order) but it is
// the sole input, together with the root seed, to the job's private
// randomness. Run receives that derived seed and returns the job's result.
type Job[T any] struct {
	Key string
	Run func(seed uint64) T
}

// SweepOn executes the jobs on pool at priority and returns their results
// in job-list order. Each job runs with DeriveSeed(root, job.Key), so no
// job's randomness depends on the pool's size, completion order, or the
// presence of other jobs — many concurrent sweeps can share one pool.
// Duplicate keys panic: two jobs with the same key would share a seed by
// construction, which is always a caller bug. On cancellation only the
// completed prefix of the results is populated; because each cell's seed
// is derived from its key alone, that prefix is byte-identical to the
// same cells of an uncancelled serial run, and a rerun resumes cleanly
// from whatever a result cache retained.
func SweepOn[T any](ctx context.Context, pool *Pool, priority int, root uint64, jobs []Job[T]) ([]T, Metrics, error) {
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if prev, dup := seen[j.Key]; dup {
			panic(fmt.Sprintf("runner: duplicate job key %q (jobs %d and %d)", j.Key, prev, i))
		}
		seen[j.Key] = i
	}
	return MapOn(ctx, pool, priority, len(jobs), func(i int) T {
		return jobs[i].Run(DeriveSeed(root, jobs[i].Key))
	})
}

// SweepKey formats the canonical environment × trial job key used by the
// experiment sweeps, e.g. "kvm-8/trial=2". Keeping the format in one place
// means the fuzzed no-collision property covers exactly the keys the
// sweeps generate.
func SweepKey(env string, trial int) string {
	return fmt.Sprintf("%s/trial=%d", env, trial)
}
