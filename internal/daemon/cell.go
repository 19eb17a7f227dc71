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
	"ksa/internal/fault"
	"ksa/internal/platform"
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

// Validate normalizes defaults and rejects malformed cell specs.
func (s *CellSpec) Validate() error {
	switch s.Scale {
	case "":
		s.Scale = "default"
	case "default", "quick":
	default:
		return fmt.Errorf("unknown scale %q (want default or quick)", s.Scale)
	}
	env, err := core.ParseEnvSpec(s.Env)
	if err != nil {
		return err
	}
	if err := env.Check(platform.PaperMachine); err != nil {
		return err
	}
	if s.Trial < 0 || s.Trial >= SweepCellLimit {
		return fmt.Errorf("trial %d outside [0, %d)", s.Trial, SweepCellLimit)
	}
	if s.Fault != "" {
		if _, ok := fault.Preset(s.Fault); !ok {
			return fmt.Errorf("unknown fault preset %q", s.Fault)
		}
	}
	if s.LeaseMS < 0 {
		return fmt.Errorf("negative lease_ms %d", s.LeaseMS)
	}
	return resultcache.CheckOwner(s.Owner)
}

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

// ScaleFor resolves a named scale preset plus an optional root-seed
// override — the one mapping from wire names to core.Scale, shared by job
// admission, the cell endpoint, and the distributed coordinator.
func ScaleFor(name string, seed uint64) core.Scale {
	sc := core.DefaultScale()
	if name == "quick" {
		sc = core.QuickScale()
	}
	if seed != 0 {
		sc.Seed = seed
	}
	return sc
}

// corpusKey keys the daemon's corpus memo: scale name and the corpus-
// shaping seed fully determine generation.
func corpusKey(scale string, seed uint64) string {
	return fmt.Sprintf("%s/%#016x", scale, seed)
}

// corpusFor memoizes corpus generation per (scale, seed): every cell of a
// distributed sweep arrives as its own HTTP request, and regenerating the
// corpus per cell would dwarf the simulation it feeds.
func (d *Daemon) corpusFor(scale string, seed uint64) *corpus.Corpus {
	key := corpusKey(scale, seed)
	d.corpusMu.Lock()
	defer d.corpusMu.Unlock()
	if c, ok := d.corpora[key]; ok {
		return c
	}
	if d.corpora == nil {
		d.corpora = map[string]*corpus.Corpus{}
	}
	sc := ScaleFor(scale, seed)
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
	if err := spec.Validate(); err != nil {
		return CellResult{}, err
	}
	sc := ScaleFor(spec.Scale, spec.Seed)
	sc.Cache = d.cfg.Cache
	sc.Priority = spec.Priority
	env, _ := core.ParseEnvSpec(spec.Env)
	o := core.SweepOptions{
		Scale:  sc,
		Envs:   []core.EnvSpec{env},
		Trials: spec.Trial + 1,
		Corpus: d.corpusFor(spec.Scale, sc.Seed),
	}
	if spec.Fault != "" {
		plan, _ := fault.Preset(spec.Fault)
		o.Faults = &plan
	}
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
