package tailbench

import (
	"ksa/internal/kernel"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
)

// ServerOptions configures one client/server run (§6.1-6.2: client and
// server share the partition and communicate over loopback; the client
// issues requests open-loop at a rate giving ~75% server utilization).
type ServerOptions struct {
	// Util is the target utilization (default 0.75, the paper's setting).
	Util float64
	// Warmup is the virtual time ignored at the start (the paper uses a
	// dedicated warm-up phase).
	Warmup sim.Time
	// Measure is the virtual measurement window.
	Measure sim.Time
	// Seed drives arrivals and request composition.
	Seed uint64
	// MeanService, when non-zero, overrides the app's rough estimate when
	// computing the arrival rate. RunSingleNode measures it on an idle
	// environment first so the offered load really is ~Util.
	MeanService sim.Time
}

// DefaultServerOptions returns the scaled-down defaults: 300ms warmup,
// 1.5s measurement (the paper runs ~3 minutes on real hardware; the shapes
// converge far earlier in the simulator).
func DefaultServerOptions(seed uint64) ServerOptions {
	return ServerOptions{Util: 0.75, Warmup: 300 * sim.Millisecond,
		Measure: 1500 * sim.Millisecond, Seed: seed}
}

// Measurement is the outcome of one server run.
type Measurement struct {
	App       string
	Env       string
	Contended bool
	// Requests measured (after warmup).
	N int
	// Latencies in microseconds.
	P50, P95, P99, Max, Mean float64
}

// Worker is one server thread: it serves one request at a time on one
// core, as its own process. It owns one syscall context, one op list with
// its argument scratch, and one kernel task whose OnDone is built once, so
// a warmed worker serves a request without allocating (the executor's
// block-I/O and IPI completions still allocate per op).
type Worker struct {
	ctx  syscalls.Ctx
	req  request
	task kernel.Task
}

// NewWorker builds a worker on ref with a fresh process salted by salt.
// onDone receives each request's latency; it may call Serve again, and
// only from there (or while the worker is idle) may Serve be called: the
// executor reads a request's ops until onDone.
func NewWorker(eng *sim.Engine, ref platform.CoreRef, salt uint64, onDone func(elapsed sim.Time)) *Worker {
	proc := syscalls.NewProc(eng)
	proc.Salt = salt
	// A small mapped working set, so memory syscalls in the mix take their
	// mapped paths.
	proc.VMAs = 8
	return &Worker{
		ctx:  syscalls.Ctx{Kern: ref.Kernel, Core: ref.Core, Proc: proc, Cov: syscalls.NopCoverage{}},
		task: kernel.Task{AddrSpace: proc.MM, OnDone: onDone},
	}
}

// Serve compiles one request of app, drawing from src, and submits it.
func (w *Worker) Serve(app *App, src *rng.Source) {
	w.req.ops.Reset()
	app.compile(&w.ctx, &w.req, src)
	w.task.Ops = w.req.ops.Ops()
	w.ctx.Kern.Submit(w.ctx.Core, &w.task)
}

// server dispatches requests to a fixed worker pool (one worker per core of
// the serving partition).
type server struct {
	eng   *sim.Engine
	app   *App
	src   *rng.Source
	slots []slot
	free  []int
	queue []sim.Time // arrivals waiting for a worker

	warmupEnd sim.Time
	measEnd   sim.Time
	sample    *stats.Sample
}

// slot is one worker and the arrival time of the request it serves.
type slot struct {
	w       *Worker
	arrived sim.Time
}

// RunServer serves app on the given cores inside env, measuring request
// latency. It drives arrivals and dispatch but does not call eng.Run (the
// caller runs the engine, possibly with noise tenants active).
// The returned collect function finalizes the measurement after the engine
// drains.
func RunServer(env *platform.Environment, cores []platform.CoreRef, app *App, opts ServerOptions) (collect func() Measurement) {
	if opts.Util <= 0 {
		opts.Util = 0.75
	}
	if opts.Measure == 0 {
		opts.Measure = 1500 * sim.Millisecond
	}
	eng := env.Eng
	s := &server{
		eng:       eng,
		app:       app,
		src:       rng.New(opts.Seed ^ 0x5345525645),
		warmupEnd: eng.Now() + opts.Warmup,
		measEnd:   eng.Now() + opts.Warmup + opts.Measure,
		sample:    stats.NewSample(4096),
	}
	s.slots = make([]slot, len(cores))
	for i, ref := range cores {
		s.slots[i].w = NewWorker(eng, ref, uint64(i+1)*0x9e3779b97f4a7c15, func(sim.Time) { s.finish(i) })
		s.free = append(s.free, i)
	}
	// Arrival rate for the target utilization.
	mean := opts.MeanService
	if mean == 0 {
		mean = app.EstServiceTime()
	}
	lambda := opts.Util * float64(len(cores)) / float64(mean)
	meanGap := sim.Time(1 / lambda)
	var arrive func()
	arrive = func() {
		now := eng.Now()
		if now >= s.measEnd {
			return
		}
		s.admit(now)
		gap := sim.Time(s.src.Exp(float64(meanGap)))
		if gap < sim.Microsecond {
			gap = sim.Microsecond
		}
		eng.After(gap, arrive)
	}
	eng.After(0, arrive)

	return func() Measurement {
		m := Measurement{App: app.Name, Env: env.Name, N: s.sample.Len()}
		if s.sample.Len() > 0 {
			m.P50 = s.sample.Median()
			m.P95 = s.sample.Quantile(0.95)
			m.P99 = s.sample.P99()
			m.Max = s.sample.Max()
			m.Mean = s.sample.Mean()
		}
		return m
	}
}

func (s *server) admit(arrived sim.Time) {
	if len(s.free) == 0 {
		s.queue = append(s.queue, arrived)
		return
	}
	w := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.dispatch(w, arrived)
}

func (s *server) dispatch(w int, arrived sim.Time) {
	s.slots[w].arrived = arrived
	s.slots[w].w.Serve(s.app, s.src)
}

// finish records worker w's request and hands it the next queued one.
func (s *server) finish(w int) {
	done := s.eng.Now()
	if a := s.slots[w].arrived; a >= s.warmupEnd && done <= s.measEnd {
		s.sample.Add((done - a).Micros())
	}
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.dispatch(w, next)
		return
	}
	s.free = append(s.free, w)
}
