package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"ksa/internal/core"
	"ksa/internal/corpus"
	"ksa/internal/daemon"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/specialize"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// sweepEnvs are the environments both sweep workloads cover: the native
// baseline, a coarse and a fine KVM partition, the shared container
// kernel, and per-tenant specialized kernels.
var sweepEnvs = []string{"native", "kvm-8", "kvm-64", "docker-64", "specialized-64"}

// warmTrials is the trial count of a sweep-warm job: 5 envs × 2 trials.
const warmTrials = 2

// opTimeout bounds one daemon job, so a hung job fails the run instead of
// hanging it.
const opTimeout = time.Minute

func parsedSweepEnvs() []core.EnvSpec {
	envs, err := core.ParseEnvSpecs(sweepEnvs)
	if err != nil {
		panic(err) // sweepEnvs is a constant list
	}
	return envs
}

// tracedPlan plans a sweep from the separate public steps PlanSweep takes,
// one span each: corpus generation, profiling for the specialized
// environments (with the seed PlanSweep uses), and PlanSweep itself.
func tracedPlan(sc core.Scale, trials int, tr *tracer) core.SweepPlan {
	var c *corpus.Corpus
	tr.span("fuzz.generate", func() { c, _ = sc.GenerateCorpus() })
	var prof *specialize.Profile
	tr.span("specialize.profile", func() {
		prof = specialize.ProfileCorpus(c, syscalls.Default(), runner.DeriveSeed(sc.Seed, "specialize/profile"), 0)
	})
	envs := parsedSweepEnvs()
	for i := range envs {
		if envs[i].Kind == platform.KindSpecialized {
			envs[i].Profile = prof
		}
	}
	var plan core.SweepPlan
	tr.span("core.plan", func() {
		plan = core.PlanSweep(core.SweepOptions{Scale: sc, Envs: envs, Trials: trials, Corpus: c})
	})
	return plan
}

// sweepCold runs one sweep cell per op through SweepPlan.RunCell against
// an empty on-disk store, so every op simulates and writes through. Ops
// come in groups of one cell per environment, and every group has its own
// seed and so its own corpus: a quick corpus holds 15 programs of 44 to 86
// calls in all, and a run on a single corpus would measure that corpus.
type sweepCold struct {
	seed   uint64
	groups int
	dir    string

	storeAt string
	st      *resultcache.Store
	reader  *resultcache.Store // second handle on st's directory: read-back checks leave st's counters alone
	plans   []core.SweepPlan
}

func newSweepCold(seed uint64, ops int, dir string) *sweepCold {
	return &sweepCold{seed: seed, dir: dir, groups: (ops + len(sweepEnvs) - 1) / len(sweepEnvs)}
}

// scale is op group g's quick-preset scale, serial and writing through
// to the store.
func (w *sweepCold) scale(g int) core.Scale {
	sc := core.QuickScale()
	sc.Seed = groupSeed(w.seed, "sweep-cold", g)
	sc.Parallel = 1
	sc.Cache = w.st
	return sc
}

func (w *sweepCold) open() error {
	dir, err := os.MkdirTemp(w.dir, "cold-")
	if err != nil {
		return err
	}
	w.storeAt = dir
	if w.st, err = openEmptyStore(dir); err != nil {
		return err
	}
	w.reader, err = resultcache.Open(dir)
	return err
}

// setup opens an empty store and plans every group's sweep; PlanSweep
// generates the group's corpus and profiles it for specialized-64.
func (w *sweepCold) setup() error {
	if err := w.open(); err != nil {
		return err
	}
	w.plans = make([]core.SweepPlan, w.groups)
	for g := range w.plans {
		w.plans[g] = core.PlanSweep(core.SweepOptions{Scale: w.scale(g), Envs: parsedSweepEnvs(), Trials: 1})
	}
	return nil
}

// cell returns op i's plan and cell: the environments of group i/5 in turn.
func (w *sweepCold) cell(i int) (core.SweepPlan, core.SweepCell) {
	p := w.plans[i/len(sweepEnvs)]
	return p, p.Cells[i%len(sweepEnvs)]
}

func (w *sweepCold) op(i int) (check, error) {
	p, c := w.cell(i)
	run, hit := p.RunCell(c)
	return func() ([]byte, error) {
		if hit {
			return nil, fmt.Errorf("cell %s hit the store", c.JobKey)
		}
		return w.readBack(p.CacheKey(c), c, run.Res)
	}, nil
}

// readBack checks that the entry stored under key is byte-identical to the
// encoding of res, and returns it.
func (w *sweepCold) readBack(key resultcache.Key, c core.SweepCell, res *varbench.Result) ([]byte, error) {
	stored, ok := w.reader.Get(key)
	if !ok {
		return nil, fmt.Errorf("cell %s: no entry stored", c.JobKey)
	}
	if !bytes.Equal(stored, codec.EncodeResult(res)) {
		return nil, fmt.Errorf("cell %s: stored entry differs from the cell's result", c.JobKey)
	}
	return stored, nil
}

// traceSetup opens a second empty store and rebuilds every group's plan
// from its separate public steps. The plans' cache keys must match the
// untraced plans', or the traced ops would not repeat the untraced ones.
func (w *sweepCold) traceSetup(tr *tracer) error {
	if err := w.open(); err != nil {
		return err
	}
	plans := make([]core.SweepPlan, len(w.plans))
	for g := range plans {
		plans[g] = tracedPlan(w.scale(g), 1, tr)
		for k, cell := range plans[g].Cells {
			if plans[g].CacheKey(cell).Hash() != w.plans[g].CacheKey(w.plans[g].Cells[k]).Hash() {
				return fmt.Errorf("traced plan's cell %s has another cache key", cell.JobKey)
			}
		}
	}
	w.plans = plans
	return nil
}

// tracedOp runs the steps RunCell takes for a cell that misses: store
// Get, environment build, harness run, encode, store Put.
func (w *sweepCold) tracedOp(i int, tr *tracer) (check, error) {
	p, c := w.cell(i)
	key := p.CacheKey(c)
	sc := p.Opts.Scale
	var (
		hit bool
		res *varbench.Result
		err error
	)
	tr.opSpan(func() {
		tr.span("resultcache.get", func() { _, hit = w.st.Get(key) })
		eng := sim.NewEngine()
		var env *platform.Environment
		tr.span("platform.build", func() { env = c.Env.Build(eng, p.Opts.Machine, c.Seed) })
		opts := varbench.Options{Iterations: sc.Iterations, Warmup: sc.Warmup, Seed: c.Seed, ExactStats: sc.ExactStats}
		tr.span("varbench.run", func() { res = varbench.Run(env, p.Opts.Corpus, opts) })
		var payload []byte
		tr.span("codec.encode", func() { payload = codec.EncodeResult(res) })
		tr.span("resultcache.put", func() { err = w.st.Put(key, payload) })
		var wait sim.Time
		for _, k := range env.Kernels {
			wait += k.Stats().LockWait
		}
		tr.count("kernel.lock_wait_sim_ms", wait.Millis())
		tr.count("codec.payload_bytes", float64(len(payload)))
		tr.count("codec.payloads", 1)
	})
	if err != nil {
		return nil, err
	}
	return func() ([]byte, error) {
		if hit {
			return nil, fmt.Errorf("traced cell %s hit the store", c.JobKey)
		}
		return w.readBack(key, c, res)
	}, nil
}

func (w *sweepCold) store() *resultcache.Store { return w.st }

func (w *sweepCold) close() error { return os.RemoveAll(w.storeAt) }

// sweepWarm submits one fully cached sweep job per op to an in-process
// ksad over loopback HTTP and waits for it on the job's event stream. Ops
// go round-robin over warmJobs job seeds, each with its own corpus, for the
// reason sweepCold gives.
type sweepWarm struct {
	seed uint64
	dir  string

	storeAt string
	st      *resultcache.Store
	d       *daemon.Daemon
	srv     *http.Server
	served  chan error
	tr      *http.Transport
	client  *daemon.Client
	fills   []daemon.JobInfo // the set-up jobs that stored every cell, by job seed
}

// warmJobs is how many distinct jobs sweep-warm fills and replays.
const warmJobs = 32

func newSweepWarm(seed uint64, dir string) *sweepWarm { return &sweepWarm{seed: seed, dir: dir} }

// spec is the sweep job of op i.
func (w *sweepWarm) spec(i int) daemon.JobSpec {
	return daemon.JobSpec{Type: daemon.TypeSweep, Scale: "quick", Seed: groupSeed(w.seed, "sweep-warm", i%warmJobs),
		Envs: sweepEnvs, Trials: warmTrials}
}

// job submits op i's sweep job and follows its event stream to the end,
// returning the final job and the number of events streamed.
func (w *sweepWarm) job(i int) (daemon.JobInfo, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	info, err := w.client.Submit(ctx, w.spec(i))
	if err != nil {
		return info, 0, err
	}
	events := 0
	info, err = w.client.Wait(ctx, info.ID, func(daemon.Event) { events++ })
	return info, events, err
}

// setup opens an empty store, starts ksad with a one-worker pool on a
// loopback listener, and fills the store with one cold job per job seed.
func (w *sweepWarm) setup() error {
	dir, err := os.MkdirTemp(w.dir, "warm-")
	if err != nil {
		return err
	}
	w.storeAt = dir
	if w.st, err = openEmptyStore(dir); err != nil {
		return err
	}
	w.d = daemon.New(daemon.Config{Workers: 1, Cache: w.st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: daemon.NewRouter(w.d)}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	w.client = &daemon.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: w.tr}}
	w.fills = w.fills[:0]
	cells := len(sweepEnvs) * warmTrials
	for k := 0; k < warmJobs; k++ {
		fill, _, err := w.job(k)
		if err != nil {
			return fmt.Errorf("fill job: %w", err)
		}
		if fill.State != daemon.StateDone || fill.Result == nil || fill.Result.FromCache || fill.Result.CacheMisses != cells {
			return fmt.Errorf("fill job %s ended %s, want done with %d misses", fill.ID, fill.State, cells)
		}
		w.fills = append(w.fills, fill)
	}
	return nil
}

// checkJob checks op i's warm job against the job that filled its cells.
func (w *sweepWarm) checkJob(i int, info daemon.JobInfo) ([]byte, error) {
	r, fill := info.Result, w.fills[i%warmJobs].Result
	cells := len(sweepEnvs) * warmTrials
	switch {
	case info.State != daemon.StateDone || r == nil:
		return nil, fmt.Errorf("job %s ended %s %s", info.ID, info.State, info.Error)
	case !r.FromCache || r.CacheHits != cells:
		return nil, fmt.Errorf("job %s: from_cache=%t with %d hits, want true with %d", info.ID, r.FromCache, r.CacheHits, cells)
	case r.Digest != fill.Digest:
		return nil, fmt.Errorf("job %s: digest %s differs from the fill job's %s", info.ID, r.Digest, fill.Digest)
	}
	return []byte(r.Digest), nil
}

func (w *sweepWarm) op(i int) (check, error) {
	info, _, err := w.job(i)
	if err != nil {
		return nil, err
	}
	return func() ([]byte, error) { return w.checkJob(i, info) }, nil
}

func (w *sweepWarm) traceSetup(*tracer) error { return nil }

// tracedOp runs the job as the untraced op does, then replays the steps
// the daemon takes for it in process, one span per public call. The job's
// time minus the replay's is the daemon's own cost.
func (w *sweepWarm) tracedOp(i int, tr *tracer) (check, error) {
	var (
		info   daemon.JobInfo
		events int
		err    error
	)
	tr.opSpan(func() { tr.span("daemon.job", func() { info, events, err = w.job(i) }) })
	if err != nil {
		return nil, err
	}
	tr.count("daemon.events", float64(events))
	var rendered, digest string
	tr.span("replay", func() { rendered, digest, err = w.replay(w.spec(i).Seed, tr) })
	if err != nil {
		return nil, err
	}
	return func() ([]byte, error) {
		out, err := w.checkJob(i, info)
		if err == nil && (digest != info.Result.Digest || rendered != info.Result.Rendered) {
			err = fmt.Errorf("job %s: the in-process replay renders or digests differently", info.ID)
		}
		return out, err
	}, nil
}

// replay serves a warm sweep in process from the daemon's store: corpus,
// profile, plan, then Get and decode per cell, then render and digest.
func (w *sweepWarm) replay(seed uint64, tr *tracer) (rendered, digest string, err error) {
	sc := daemon.ScaleFor("quick", seed)
	sc.Cache = w.st
	plan := tracedPlan(sc, warmTrials, tr)
	res := core.SweepResult{Runs: make([]core.SweepRun, 0, len(plan.Cells))}
	for _, cell := range plan.Cells {
		key := plan.CacheKey(cell)
		var payload []byte
		var ok bool
		tr.span("resultcache.get", func() { payload, ok = w.st.Get(key) })
		if !ok {
			return "", "", fmt.Errorf("replay: cell %s missing from the store", cell.JobKey)
		}
		var r *varbench.Result
		tr.span("codec.decode", func() { r, err = codec.DecodeResult(payload) })
		if err != nil {
			return "", "", err
		}
		tr.count("codec.payload_bytes", float64(len(payload)))
		tr.count("codec.payloads", 1)
		res.Runs = append(res.Runs, core.SweepRun{Env: cell.Env, Trial: cell.Trial,
			FaultSig: cell.FaultSig, Seed: cell.Seed, Res: r})
	}
	tr.span("core.render", func() { rendered = res.Render() })
	tr.span("core.digest", func() { digest = res.Digest() })
	return rendered, digest, nil
}

func (w *sweepWarm) store() *resultcache.Store { return w.st }

// close stops the HTTP server and the daemon, waits for both, and removes
// the store.
func (w *sweepWarm) close() error {
	var err error
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err = w.srv.Shutdown(ctx)
		cancel()
		if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		w.tr.CloseIdleConnections()
		w.srv = nil
	}
	if w.d != nil {
		w.d.Close()
		w.d = nil
	}
	return errors.Join(err, os.RemoveAll(w.storeAt))
}
