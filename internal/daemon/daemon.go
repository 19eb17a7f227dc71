package daemon

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/resultcache"
	"ksa/internal/runner"
)

// Config configures a Daemon.
type Config struct {
	// Workers sizes the shared runner pool (0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes every cell and enables the
	// serve-from-cache fast path.
	Cache *resultcache.Store
	// Logf, when non-nil, receives one line per job lifecycle transition.
	Logf func(format string, args ...any)
}

// Daemon owns the job table, the shared pool, and the per-job event logs.
type Daemon struct {
	cfg  Config
	pool *runner.Pool

	root context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool

	// corpusMu/corpora memoize corpus generation for the worker-mode cell
	// endpoint (see cell.go).
	corpusMu sync.Mutex
	corpora  map[corpusKey]*corpus.Corpus
}

// New starts a daemon with its worker pool. Close it when done.
func New(cfg Config) *Daemon {
	d := &Daemon{
		cfg:  cfg,
		pool: runner.NewPool(cfg.Workers),
		jobs: map[string]*job{},
	}
	d.root, d.stop = context.WithCancel(context.Background())
	return d
}

// Close cancels every running job, drains them, and stops the pool.
func (d *Daemon) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.stop()
	d.wg.Wait()
	d.pool.Close()
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Submit validates and admits one job, returning immediately; the job
// runs asynchronously. Implements Backend.
func (d *Daemon) Submit(spec JobSpec) (JobInfo, error) {
	if err := spec.Validate(); err != nil {
		return JobInfo{}, err
	}
	ctx, cancel := context.WithCancel(d.root)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		cancel()
		return JobInfo{}, errors.New("daemon is shutting down")
	}
	d.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%d", d.nextID),
		spec:    spec,
		state:   StateQueued,
		created: time.Now().UTC(),
		cancel:  cancel,
	}
	j.log = NewEventLog(j.id)
	d.jobs[j.id] = j
	d.order = append(d.order, j.id)
	d.mu.Unlock()

	j.log.Append(EventQueued, map[string]any{"type": spec.Type, "priority": spec.Priority})
	d.logf("%s queued: type=%s priority=%d", j.id, spec.Type, spec.Priority)
	d.wg.Add(1)
	go d.run(ctx, j)
	return j.info(), nil
}

// Job returns one job's info. Implements Backend.
func (d *Daemon) Job(id string) (JobInfo, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobInfo{}, false
	}
	return j.info(), true
}

// Jobs lists every job in submission order. Implements Backend.
func (d *Daemon) Jobs() []JobInfo {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	d.mu.Unlock()
	out := make([]JobInfo, 0, len(ids))
	for _, id := range ids {
		if in, ok := d.Job(id); ok {
			out = append(out, in)
		}
	}
	return out
}

// Cancel requests a job's cancellation: queued cells are dropped promptly,
// the in-flight cell drains, and the job lands in state "canceled".
// Cancelling a terminal job is a no-op. Implements Backend.
func (d *Daemon) Cancel(id string) (JobInfo, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobInfo{}, false
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	cancel := j.cancel
	j.mu.Unlock()
	if !terminal {
		cancel()
	}
	return j.info(), true
}

// Events returns a job's event log for subscription. Implements Backend.
func (d *Daemon) Events(id string) (*EventLog, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.log, true
}

// CacheInfo is the cache half of the metrics snapshot.
type CacheInfo struct {
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	HitRate      float64 `json:"hit_rate"`
	Puts         int64   `json:"puts"`
	BytesRead    int64   `json:"bytes_read"`
	BytesWritten int64   `json:"bytes_written"`
}

// PoolInfo is the runner half of the metrics snapshot.
type PoolInfo struct {
	Workers      int     `json:"workers"`
	QueueDepth   int     `json:"queue_depth"`
	Running      int     `json:"running"`
	CellsRun     int64   `json:"cells_run"`
	CellsSkipped int64   `json:"cells_skipped"`
	BusyMS       float64 `json:"busy_ms"`
}

// MetricsInfo is the GET /v1/metrics payload.
type MetricsInfo struct {
	Jobs  map[string]int `json:"jobs"`
	Pool  PoolInfo       `json:"pool"`
	Cache *CacheInfo     `json:"cache,omitempty"`
}

// Metrics snapshots the daemon. Implements Backend.
func (d *Daemon) Metrics() MetricsInfo {
	m := MetricsInfo{Jobs: map[string]int{}}
	for _, in := range d.Jobs() {
		m.Jobs[string(in.State)]++
	}
	ps := d.pool.Stats()
	m.Pool = PoolInfo{
		Workers: ps.Workers, QueueDepth: ps.QueueDepth, Running: ps.Running,
		CellsRun: ps.CellsRun, CellsSkipped: ps.CellsSkipped,
		BusyMS: float64(ps.Busy.Milliseconds()),
	}
	if d.cfg.Cache != nil {
		cs := d.cfg.Cache.Stats()
		m.Cache = &CacheInfo{
			Hits: cs.Hits, Misses: cs.Misses, HitRate: cs.HitRate(), Puts: cs.Puts,
			BytesRead: cs.BytesRead, BytesWritten: cs.BytesWritten,
		}
	}
	return m
}

// run executes one job to a terminal state.
func (d *Daemon) run(ctx context.Context, j *job) {
	defer d.wg.Done()
	defer j.log.Close()
	defer func() {
		// A panicking experiment (bad plan, poisoned cache under verify)
		// fails its job; it must never take the daemon down.
		if r := recover(); r != nil {
			d.finish(j, StateFailed, nil, fmt.Errorf("panic: %v", r))
		}
	}()

	j.mu.Lock()
	if j.state.Terminal() { // cancelled before starting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()
	j.log.Append(EventStarted, nil)
	d.logf("%s started", j.id)

	// Submit validated the spec. The resolved scale runs on the shared
	// cache and the shared pool every fan-out uses.
	o, _ := j.spec.resolve()
	o.Scale.Cache = d.cfg.Cache
	o.Scale.Exec = d.pool
	o.Scale.Priority = j.spec.Priority
	var (
		res *Result
		err error
	)
	switch j.spec.Type {
	case TypeSweep:
		res, err = d.runSweep(ctx, j, o)
	case TypeExperiment:
		res, err = d.runExperiment(ctx, j, o.Scale)
	}
	switch {
	case err == nil:
		d.finish(j, StateDone, res, nil)
	case errors.Is(err, context.Canceled):
		d.finish(j, StateCanceled, nil, err)
	default:
		d.finish(j, StateFailed, nil, err)
	}
}

// finish moves the job to its terminal state and emits the terminal event.
func (d *Daemon) finish(j *job, st State, res *Result, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = st
	j.finished = time.Now().UTC()
	j.result = res
	if err != nil && st == StateFailed {
		j.err = err.Error()
	}
	j.mu.Unlock()

	switch st {
	case StateDone:
		data := map[string]any{"cells": res.Cells, "from_cache": res.FromCache}
		if res.Digest != "" {
			data["digest"] = res.Digest
		}
		j.log.Append(EventDone, data)
	case StateCanceled:
		j.log.Append(EventCanceled, nil)
	case StateFailed:
		j.log.Append(EventFailed, map[string]any{"error": j.err})
	}
	d.logf("%s %s", j.id, st)
}

func (d *Daemon) runSweep(ctx context.Context, j *job, o core.SweepOptions) (*Result, error) {
	o.Trace = j.spec.Trace
	o.Progress = func(p core.SweepProgress) {
		j.log.Append(EventProgress, map[string]any{
			"cell": p.Key, "index": p.Index, "total": p.Total, "cache_hit": p.CacheHit,
		})
		if j.spec.Trace && p.Run.Res != nil {
			j.log.Append(EventBlame, map[string]any{
				"cell": p.Key, "report": core.RenderBlame(p.Run.Res, 3),
			})
		}
	}
	p := core.PlanSweep(o)

	// Fast path: a fully warmed sweep is decoded from the store on a
	// one-worker pool of its own — the shared pool is never touched, so
	// cache-hit jobs cost readers, not workers.
	fromCache := p.Cached()
	if fromCache {
		p.Opts.Scale.Exec = nil
		p.Opts.Scale.Parallel = 1
		j.log.Append(EventCache, map[string]any{"fully_cached": true})
	}

	res, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{
		Rendered:  res.Render(),
		Digest:    res.Digest(),
		Cells:     len(res.Runs),
		CacheHits: res.Par.CacheHits, CacheMisses: res.Par.CacheMisses,
		FromCache: fromCache,
	}, nil
}

func (d *Daemon) runExperiment(ctx context.Context, j *job, sc core.Scale) (*Result, error) {
	exp, _ := core.LookupExperiment(j.spec.Exp) // Submit validated the spec
	out, err := exp.Run(ctx, sc, j.spec.Fault)
	if err != nil {
		return nil, err
	}
	res := &Result{Rendered: out.Text}
	// Results whose cells ran as one fan-out (interference, isolation)
	// report its cell and cache counts, as sweeps do.
	if f, ok := out.Result.(interface{ Fanout() runner.Metrics }); ok {
		m := f.Fanout()
		res.Cells, res.CacheHits, res.CacheMisses = m.Completed, m.CacheHits, m.CacheMisses
	}
	return res, nil
}
