// Package distsweep shards a sweep grid across worker processes — locally
// spawned ksad daemons or remote URLs — and merges their cells into the
// same SweepResult a serial in-process run produces, byte for byte.
//
// The coordination model is deliberately thin, because the determinism
// contract does the heavy lifting: every cell is a pure function of its
// job key and derived seed, so the coordinator only has to (1) enumerate
// the same grid every execution mode enumerates (core.PlanSweep), (2) get
// each cell executed by *someone*, and (3) merge payloads in job-key
// order. Workers coordinate through the content-addressed result cache:
// a shared cache directory makes completed cells visible to every worker
// instantly, and advisory lease sentinels (resultcache.TryClaim) keep two
// live workers from duplicating the same in-flight cell. Leases are never
// a correctness mechanism — a stolen or duplicated cell writes the same
// bytes — so worker death needs no recovery protocol: the SIGKILLed
// worker's lease expires, its cell is re-dispatched, and the sweep
// completes with an identical digest.
//
// Failure handling maps onto runner.Dispatch's protocol: transport errors
// retire the worker's slot (its item requeues to a peer), HTTP 409 — the
// cell's lease is live on another worker — backs off until the holder's
// expiry and retries, and anything else aborts the sweep.
package distsweep

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ksa/internal/core"
	"ksa/internal/daemon"
	"ksa/internal/resultcache/codec"
	"ksa/internal/runner"
)

// Options configures Run.
type Options struct {
	// Spec is the grid. The coordinator and every worker resolve it
	// through core.SweepSpec.Options, so they enumerate identical cells.
	Spec core.SweepSpec
	// Workers are the worker daemons' base URLs; one dispatch slot each.
	Workers []string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Owner identifies this coordinator in lease sentinels (default
	// "distsweep"). Two concurrent coordinators must use distinct owners.
	Owner string
	// LeaseTTL bounds how long a dead worker's claim blocks its cell
	// (default 10s). Zero disables leasing — correct but wasteful when
	// several coordinators race, see the package comment. Workers refresh
	// nothing: a cell slower than the TTL may be duplicated, never lost.
	LeaseTTL time.Duration
	// HoldWait caps the backoff when a cell's lease is held elsewhere
	// (default 250ms): the coordinator sleeps min(until expiry, HoldWait)
	// before requeueing the cell.
	HoldWait time.Duration
	// Progress, when non-nil, is called once per merged cell (from
	// dispatch goroutines — it must be safe for concurrent use).
	Progress func(done, total int, key string, cacheHit bool)
	// Logf, when non-nil, receives coordinator lifecycle lines.
	Logf func(format string, args ...any)
}

// Result is a completed distributed sweep.
type Result struct {
	// Sweep holds the merged cells in job-key order — the same value, and
	// therefore the same Digest(), as a serial core.RunSweep of the grid.
	Sweep core.SweepResult
	// Dispatch is the coordinator's work-queue accounting (per-slot cell
	// counts, retries from held leases, slot failures from dead workers).
	Dispatch runner.DispatchMetrics
	// RemoteHits counts cells a worker answered from its cache.
	RemoteHits int
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run executes the sweep across the worker fleet and returns the merged
// result. The returned Sweep is bit-identical to a serial run of the same
// grid for any worker count, any cell→worker assignment, and any pattern
// of worker death that leaves at least one worker alive.
//
// A malformed grid or an empty fleet is an error before any worker is
// contacted: spec errors must abort the sweep, never retire slots one by
// one.
func Run(ctx context.Context, o Options) (Result, error) {
	if len(o.Workers) == 0 {
		return Result{}, errors.New("distsweep: no workers")
	}
	so, err := o.Spec.Options()
	if err != nil {
		return Result{}, fmt.Errorf("distsweep: %w", err)
	}
	if o.Owner == "" {
		o.Owner = "distsweep"
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.HoldWait <= 0 {
		o.HoldWait = 250 * time.Millisecond
	}
	// The grid's cells supply the canonical enumeration (merge order) and
	// each cell's expected seed; workers re-derive both from the spec and
	// the coordinator cross-checks them (a mismatch means the fleet is not
	// running this grid — abort, do not retry). The coordinator never runs
	// a cell, so it enumerates without planning: no corpus, no profile.
	cells := so.Cells()
	o.logf("distsweep: %d cells across %d workers (scale=%s lease=%v)",
		len(cells), len(o.Workers), o.Spec.Scale, o.LeaseTTL)

	clients := make([]*daemon.Client, len(o.Workers))
	for i, u := range o.Workers {
		clients[i] = &daemon.Client{Base: u, HTTP: o.HTTP}
	}

	runs := make([]core.SweepRun, len(cells))
	hits := make([]bool, len(cells))
	m, err := runner.Dispatch(ctx, len(clients), len(cells), func(ctx context.Context, slot, item int) error {
		cell := cells[item]
		res, err := clients[slot].Cell(ctx, daemon.CellSpec{
			Scale: o.Spec.Scale, Seed: o.Spec.Seed,
			Env: cell.Env.String(), Trial: cell.Trial,
			Fault: o.Spec.Fault,
			Owner: o.Owner, LeaseMS: o.LeaseTTL.Milliseconds(),
		})
		var held *daemon.LeaseHeldError
		switch {
		case errors.As(err, &held):
			// The cell is in flight on another worker (or a dead worker's
			// unexpired lease). Sleep toward the expiry, bounded by
			// HoldWait, then requeue — when the holder finishes, the retry
			// is a cache hit; when the holder died, expiry lets us steal.
			wait := min(time.Until(held.Expires), o.HoldWait)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return fmt.Errorf("%s held by %s: %w", cell.JobKey, held.Holder, runner.ErrRetryItem)
		case err != nil && ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			// Transport failure or server error: retire the slot. A dead
			// worker's in-flight and future cells both land here; the item
			// requeues to a live peer. (A malformed spec cannot reach this
			// path — validate rejected it before dispatch.)
			return fmt.Errorf("worker %s: %v: %w", o.Workers[slot], err, runner.ErrSlotFailed)
		}
		if res.Seed != cell.Seed {
			return fmt.Errorf("distsweep: %s: worker %s derived seed %#016x, coordinator %#016x — fleet is not running this grid",
				cell.JobKey, o.Workers[slot], res.Seed, cell.Seed)
		}
		vr, err := codec.DecodeResult(res.Payload)
		if err != nil {
			return fmt.Errorf("distsweep: %s: bad payload from %s: %v: %w",
				cell.JobKey, o.Workers[slot], err, runner.ErrSlotFailed)
		}
		runs[item] = core.SweepRun{
			Env: cell.Env, Trial: cell.Trial, FaultSig: cell.FaultSig,
			Seed: cell.Seed, Res: vr,
		}
		hits[item] = res.CacheHit
		if o.Progress != nil {
			o.Progress(item, len(cells), cell.JobKey, res.CacheHit)
		}
		return nil
	})

	out := Result{Dispatch: m}
	for _, h := range hits {
		if h {
			out.RemoteHits++
		}
	}
	// Merge in enumeration order — runs[] is already indexed by cell, so
	// the slice is the job-key order a serial run produces.
	out.Sweep = core.SweepResult{
		Runs: runs,
		Par: runner.Metrics{
			Jobs: len(cells), Workers: len(o.Workers), Wall: m.Wall,
			Completed: m.Completed, CacheHits: out.RemoteHits,
			CacheMisses: m.Completed - out.RemoteHits,
		},
	}
	if err != nil {
		// Unlike the in-process pool there is no prefix guarantee across
		// slots; surface only the cells that completed, in order, with
		// gaps elided.
		done := out.Sweep.Runs[:0]
		for _, r := range out.Sweep.Runs {
			if r.Res != nil {
				done = append(done, r)
			}
		}
		out.Sweep.Runs = done
		return out, err
	}
	o.logf("distsweep: complete: %s, %d remote cache hit(s)", m, out.RemoteHits)
	return out, nil
}
