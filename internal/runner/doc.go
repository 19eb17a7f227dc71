// Package runner fans independent simulation jobs across OS threads and
// merges their results deterministically. Every sim.Engine is a
// single-threaded virtual-time world with no shared mutable state, so a
// sweep of N configurations (environment × corpus × seed trial) is
// embarrassingly parallel — the only discipline required is that
// parallelism must never leak into the results:
//
//   - Results are ordered by job position (the caller-built job list, i.e.
//     job-key order), never by completion order.
//   - Each job's randomness is derived by hashing its key into the root
//     seed (DeriveSeed), not drawn from a shared stream, so adding workers,
//     adding jobs, or reordering submissions cannot change any job's seed.
//
// Under those two rules a sweep at -parallel 8 is bit-identical to the
// serial one; parallelism only changes wall-clock time. Pool is the one
// scheduler: a service shares a single pool across concurrent fan-outs,
// a one-shot run starts one per fan-out. Dispatch is the separate
// work-queue primitive for remote worker slots, with failover and no
// prefix guarantee. Metrics records per-job wall time and queue wait so
// the speedup is observable, and — when the orchestration layer runs jobs
// through the content-addressed result cache — the hit and miss counts of
// the fan-out's own cells, which stay exact when other fan-outs share the
// store, so cache effectiveness shows up next to the wall/queue
// accounting it affects.
package runner
