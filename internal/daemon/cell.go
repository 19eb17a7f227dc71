// Worker mode: the single-cell endpoint a distributed sweep's coordinator
// drives. POST /v1/cells runs exactly one (environment, trial) cell of a
// sweep grid — through this daemon's cache and lease protocol — and
// returns the cell's canonical encoded payload. A fleet of ksad processes
// pointed at one shared cache directory (or at nothing shared at all;
// payloads travel over the wire) becomes the execution substrate for
// internal/distsweep.
package daemon

import (
	"context"
	"fmt"
	"time"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
)

// CellSpec is the wire form of one cell execution request
// (POST /v1/cells). It carries the cell's complete identity — scale
// preset, root seed, environment, trial index, fault preset — so any
// worker reconstructs bit-identical inputs from the spec alone; nothing
// depends on worker-local state.
type CellSpec struct {
	// Scale is "quick" or "default" (the default).
	Scale string `json:"scale,omitempty"`
	// Seed overrides the scale's root seed when nonzero. Cell seeds are
	// derived from this root and the cell's job key, exactly as a local
	// sweep derives them.
	Seed uint64 `json:"seed,omitempty"`
	// Env is the cell's environment spec ("native", "kvm-8", …).
	Env string `json:"env"`
	// Trial is the cell's trial index within the sweep grid.
	Trial int `json:"trial"`
	// Fault names the sweep's interference preset ("" = clean).
	Fault string `json:"fault,omitempty"`
	// Priority orders the cell against other work on this worker's pool.
	Priority int `json:"priority,omitempty"`
	// Owner identifies the claimant for the lease protocol (typically the
	// coordinator's name plus the target worker URL); it may not hold
	// control characters. Empty with LeaseMS zero skips leasing entirely.
	Owner string `json:"owner,omitempty"`
	// LeaseMS is the claim TTL in milliseconds. Zero runs the cell
	// without a lease (single-coordinator mode); positive makes the
	// worker claim the cell's cache key first and answer 409 when another
	// live worker already holds it.
	LeaseMS int64 `json:"lease_ms,omitempty"`
}

// Validate rejects malformed cell specs.
func (s CellSpec) Validate() error {
	_, err := s.options()
	return err
}

// options resolves the cell's grid — its one environment, trials 0 …
// Trial — through core.SweepSpec, so a cell is accepted exactly when the
// sweep it belongs to would be, and checks the lease fields.
func (s CellSpec) options() (core.SweepOptions, error) {
	if s.Trial < 0 {
		return core.SweepOptions{}, fmt.Errorf("negative trial %d", s.Trial)
	}
	o, err := core.SweepSpec{Scale: s.Scale, Seed: s.Seed, Envs: []string{s.Env},
		Trials: s.Trial + 1, Fault: s.Fault}.Options()
	if err != nil {
		return o, err
	}
	if s.LeaseMS < 0 {
		return o, fmt.Errorf("negative lease_ms %d", s.LeaseMS)
	}
	return o, resultcache.CheckOwner(s.Owner)
}

// badSpec marks a request RunCell rejected before running anything: the
// router answers it with a 400.
type badSpec struct{ error }

// CellResult is the wire form of a completed cell.
type CellResult struct {
	// JobKey is the cell's identity within its sweep, e.g. "kvm-8/trial=2".
	JobKey string `json:"job_key"`
	// Seed is the cell's derived private seed — coordinators cross-check
	// it against their own derivation to catch spec drift.
	Seed uint64 `json:"seed"`
	// Hash is the cell's cache entry address (diagnostic).
	Hash string `json:"hash"`
	// CacheHit reports whether this worker served the cell from its store
	// rather than simulating.
	CacheHit bool `json:"cache_hit"`
	// Payload is the cell's canonical encoding (resultcache/codec), the
	// exact bytes a local run would cache — base64 over the JSON wire.
	Payload []byte `json:"payload"`
}

// LeaseHeldError reports that another worker holds a cell's lease — the
// HTTP 409 body of the cell endpoint. Coordinators back off and retry;
// the holder's TTL bounds the wait.
type LeaseHeldError struct {
	Holder  string    `json:"holder"`
	Expires time.Time `json:"expires"`
}

func (e *LeaseHeldError) Error() string {
	return fmt.Sprintf("cell lease held by %s until %s", e.Holder, e.Expires.Format(time.RFC3339))
}

// ScaleFor is core.ScaleNamed for callers that name a preset they know:
// any name but "quick" gives the default scale.
func ScaleFor(name string, seed uint64) core.Scale {
	if name != "quick" {
		name = ""
	}
	sc, _ := core.ScaleNamed(name, seed)
	return sc
}

// corpusKey keys the daemon's corpus memo: a scale's program count and
// seed fully determine the corpus it generates.
type corpusKey struct {
	programs int
	seed     uint64
}

// corpusFor memoizes corpus generation per corpusKey: every cell of a
// distributed sweep arrives as its own HTTP request, and regenerating the
// corpus per cell would dwarf the simulation it feeds.
func (d *Daemon) corpusFor(sc core.Scale) *corpus.Corpus {
	key := corpusKey{sc.CorpusPrograms, sc.Seed}
	d.corpusMu.Lock()
	defer d.corpusMu.Unlock()
	if c, ok := d.corpora[key]; ok {
		return c
	}
	if d.corpora == nil {
		d.corpora = map[corpusKey]*corpus.Corpus{}
	}
	c, _ := sc.GenerateCorpus()
	d.corpora[key] = c
	return c
}

// RunCell executes one sweep cell synchronously on the shared pool and
// returns its canonical payload. Implements Backend.
//
// The lease protocol (spec.LeaseMS > 0, cache configured): the worker
// claims the cell's cache key before simulating; a live foreign lease
// answers *LeaseHeldError without touching the pool, so coordinators
// never stack duplicate work behind a straggler — they retry after
// backoff, and TTL expiry lets them steal cells whose workers died
// mid-simulation. Completed cells short-circuit before leasing: an entry
// on disk beats any claim.
func (d *Daemon) RunCell(ctx context.Context, spec CellSpec) (CellResult, error) {
	o, err := spec.options()
	if err != nil {
		return CellResult{}, badSpec{err}
	}
	o.Scale.Cache = d.cfg.Cache
	o.Scale.Priority = spec.Priority
	o.Corpus = d.corpusFor(o.Scale)
	p := core.PlanSweep(o)
	cell := p.Cells[spec.Trial] // single env: index == trial
	res := CellResult{JobKey: cell.JobKey, Seed: cell.Seed}

	if cache := d.cfg.Cache; cache != nil {
		key := p.CacheKey(cell)
		res.Hash = key.Hash()
		// Fast path: the cell is already on disk — serve the exact stored
		// bytes without occupying the pool or taking a lease. The probe
		// moves no counter, so a request makes one counted lookup: this
		// read, or RunCell's after the claim.
		if cache.Contains(key) {
			if payload, ok := cache.Get(key); ok {
				res.CacheHit = true
				res.Payload = payload
				return res, nil
			}
		}
		if spec.LeaseMS > 0 {
			ttl := time.Duration(spec.LeaseMS) * time.Millisecond
			ok, holder := cache.TryClaim(key, spec.Owner, ttl)
			if !ok {
				return CellResult{}, &LeaseHeldError{Holder: holder.Owner, Expires: holder.Expires}
			}
			defer cache.ReleaseClaim(key, spec.Owner)
		}
	}

	var run core.SweepRun
	var hit bool
	if _, err := d.pool.Do(ctx, spec.Priority, 1, func(int) {
		run, hit = p.RunCell(cell)
	}); err != nil {
		return CellResult{}, err
	}
	res.CacheHit = hit
	res.Payload = codec.EncodeResult(run.Res)
	return res, nil
}
