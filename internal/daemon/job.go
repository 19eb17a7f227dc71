package daemon

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ksa/internal/core"
)

// Job types accepted by the API.
const (
	TypeSweep      = "sweep"
	TypeExperiment = "experiment"
)

// JobSpec is the wire form of a job submission (POST /v1/jobs).
type JobSpec struct {
	// Type selects the job kind: "sweep" (environment × trial varbench
	// grid) or "experiment" (one named entry of the experiment table).
	Type string `json:"type"`
	// Exp names the experiment for Type "experiment": any entry of
	// core.Experiments.
	Exp string `json:"exp,omitempty"`
	// Scale is "quick" or "default" (the default).
	Scale string `json:"scale,omitempty"`
	// Seed overrides the scale's root seed when nonzero.
	Seed uint64 `json:"seed,omitempty"`
	// Envs are the sweep's environments ("native", "kvm-8", "docker-64",
	// "lightvm-16", "specialized-8"). Required for Type "sweep".
	Envs []string `json:"envs,omitempty"`
	// Trials is the sweep's repetitions per environment (default 1).
	Trials int `json:"trials,omitempty"`
	// Fault names an interference preset: the plan dosed over a sweep, or
	// the plan of the interference experiment (default "mixed").
	Fault string `json:"fault,omitempty"`
	// Trace attaches tracers to a sweep's kernels; traced cells bypass
	// the cache and emit per-cell blame events.
	Trace bool `json:"trace,omitempty"`
	// Priority orders this job's cells against other jobs on the shared
	// pool (higher first; default 0).
	Priority int `json:"priority,omitempty"`
}

// Validate normalizes defaults and rejects malformed specs.
func (s *JobSpec) Validate() error {
	if s.Scale == "" {
		s.Scale = "default"
	}
	_, err := s.resolve()
	return err
}

// resolve validates the spec and returns what it runs at: a sweep's grid
// as core.SweepSpec resolves it, or an experiment's scale alone.
func (s JobSpec) resolve() (core.SweepOptions, error) {
	switch s.Type {
	case TypeSweep:
		return core.SweepSpec{Scale: s.Scale, Seed: s.Seed, Envs: s.Envs, Trials: s.Trials, Fault: s.Fault}.Options()
	case TypeExperiment:
		if len(s.Envs) != 0 {
			return core.SweepOptions{}, errors.New("experiment jobs take no envs (each experiment's grid is fixed)")
		}
		if _, err := core.LookupExperiment(s.Exp); err != nil {
			return core.SweepOptions{}, err
		}
		if s.Trials < 0 {
			return core.SweepOptions{}, fmt.Errorf("negative trials %d", s.Trials)
		}
		if _, err := core.FaultNamed(s.Fault); err != nil {
			return core.SweepOptions{}, err
		}
		sc, err := core.ScaleNamed(s.Scale, s.Seed)
		return core.SweepOptions{Scale: sc}, err
	case "":
		return core.SweepOptions{}, fmt.Errorf("missing job type (want %s or %s)", TypeSweep, TypeExperiment)
	default:
		return core.SweepOptions{}, fmt.Errorf("unknown job type %q (want %s or %s)", s.Type, TypeSweep, TypeExperiment)
	}
}

// State is a job's lifecycle position. Transitions are strictly
// queued → running → {done, canceled, failed}; terminal states never
// change.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Result is a finished job's payload.
type Result struct {
	// Rendered is the experiment's canonical text output — byte-identical
	// to the same run performed locally.
	Rendered string `json:"rendered"`
	// Digest fingerprints a sweep's complete numeric content (SHA-256
	// over the cells' canonical encodings); empty for experiment jobs.
	Digest string `json:"digest,omitempty"`
	// Cells is how many grid cells the job comprised: a sweep's, or those
	// of an experiment whose result carries its fan-out's metrics
	// (interference, isolation).
	Cells int `json:"cells,omitempty"`
	// CacheHits/CacheMisses are the job's result-store accounting,
	// counted from its own cells' lookups, so they stay exact while other
	// jobs share the store. Both are zero when no cell consults it.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// FromCache reports the fast path: every cell was served from the
	// store and the job never occupied the runner pool.
	FromCache bool `json:"from_cache"`
}

// job is the daemon's mutable record of one submission.
type job struct {
	id   string
	spec JobSpec
	log  *EventLog

	mu       sync.Mutex
	state    State
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   func() // non-nil once running
	result   *Result
}

// JobInfo is the API view of a job (GET /v1/jobs/{id}).
type JobInfo struct {
	ID       string     `json:"id"`
	Spec     JobSpec    `json:"spec"`
	State    State      `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Result   *Result    `json:"result,omitempty"`
}

// info snapshots the job under its lock.
func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := JobInfo{
		ID: j.id, Spec: j.spec, State: j.state, Error: j.err, Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		in.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		in.Finished = &t
	}
	if j.result != nil {
		r := *j.result
		in.Result = &r
	}
	return in
}
