package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ksa/internal/core"
	"ksa/internal/daemon"
	"ksa/internal/fault"
	"ksa/internal/resultcache"
	"ksa/internal/sim"
)

// newTestServer starts a daemon (with a fresh result cache when cached)
// behind an httptest server and returns a client for it.
func newTestServer(t *testing.T, workers int, cached bool) (*daemon.Daemon, *daemon.Client) {
	t.Helper()
	var cache *resultcache.Store
	if cached {
		var err error
		cache, err = resultcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
	}
	d := daemon.New(daemon.Config{Workers: workers, Cache: cache, Logf: t.Logf})
	ts := httptest.NewServer(daemon.NewRouter(d))
	t.Cleanup(func() {
		ts.Close()
		d.Close()
	})
	return d, &daemon.Client{Base: ts.URL, HTTP: ts.Client()}
}

// sweepSpec is the small quick-scale grid the tests sweep: 4 cells.
func sweepSpec() daemon.JobSpec {
	return daemon.JobSpec{
		Type:   daemon.TypeSweep,
		Scale:  "quick",
		Envs:   []string{"native", "docker-4"},
		Trials: 2,
	}
}

// serialDigest runs the same grid serially in-process, uncached — the
// reference bits every daemon-served run must match.
func serialDigest(t *testing.T, spec daemon.JobSpec) string {
	t.Helper()
	sc := core.QuickScale()
	if spec.Seed != 0 {
		sc.Seed = spec.Seed
	}
	sc.Parallel = 1
	envs, err := core.ParseEnvSpecs(spec.Envs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunSweep(context.Background(), core.SweepOptions{Scale: sc, Envs: envs, Trials: spec.Trials})
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}

func TestDaemonServesConcurrentClientsBitIdentical(t *testing.T) {
	_, cl := newTestServer(t, 4, true)
	spec := sweepSpec()
	want := serialDigest(t, spec)

	// Eight clients race the same grid against one shared pool and one
	// shared cache; all must get the serial run's bits.
	const clients = 8
	digests := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			info, err := cl.Submit(ctx, spec)
			if err != nil {
				t.Error(err)
				return
			}
			info, err = cl.Wait(ctx, info.ID, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if info.State != daemon.StateDone {
				t.Errorf("%s: state %s (%s)", info.ID, info.State, info.Error)
				return
			}
			if info.Result.Cells != 4 {
				t.Errorf("%s: %d cells, want 4", info.ID, info.Result.Cells)
			}
			digests[i] = info.Result.Digest
		}(i)
	}
	wg.Wait()
	for i, d := range digests {
		if d != want {
			t.Fatalf("client %d digest %s != serial %s", i, d, want)
		}
	}
}

func TestDaemonEventStreamAndReplay(t *testing.T) {
	_, cl := newTestServer(t, 2, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	info, err := cl.Submit(ctx, sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	var full []daemon.Event
	if _, err := cl.Wait(ctx, info.ID, func(ev daemon.Event) { full = append(full, ev) }); err != nil {
		t.Fatal(err)
	}

	// The stream is dense from 1 and carries the whole lifecycle.
	counts := map[string]int{}
	for i, ev := range full {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq gap at %d: got %d", i, ev.Seq)
		}
		counts[ev.Type]++
	}
	if counts[daemon.EventQueued] != 1 || counts[daemon.EventStarted] != 1 ||
		counts[daemon.EventDone] != 1 || counts[daemon.EventProgress] != 4 {
		t.Fatalf("lifecycle counts off: %v", counts)
	}
	for _, ev := range full {
		if ev.Type == daemon.EventProgress {
			if _, ok := ev.Data["cache_hit"]; !ok {
				t.Fatalf("progress event missing cache_hit: %v", ev.Data)
			}
		}
	}

	// Replay from the middle: a late joiner with since=N sees exactly the
	// suffix, ending with the same terminal event.
	var tail []daemon.Event
	since := uint64(2)
	if err := cl.Events(ctx, info.ID, since, func(ev daemon.Event) { tail = append(tail, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(full)-int(since) {
		t.Fatalf("replay from %d returned %d events, want %d", since, len(tail), len(full)-int(since))
	}
	if tail[0].Seq != since+1 || tail[len(tail)-1].Type != daemon.EventDone {
		t.Fatalf("replay window wrong: first seq %d, last type %s", tail[0].Seq, tail[len(tail)-1].Type)
	}
}

func TestDaemonCacheFastPathSkipsPool(t *testing.T) {
	_, cl := newTestServer(t, 2, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := sweepSpec()

	// Warm the cache.
	info, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = cl.Wait(ctx, info.ID, nil); err != nil || info.State != daemon.StateDone {
		t.Fatalf("warm run: %v, state %s (%s)", err, info.State, info.Error)
	}
	if info.Result.FromCache {
		t.Fatal("cold run claimed the cache fast path")
	}
	if info.Result.CacheMisses != 4 {
		t.Fatalf("cold run: %d misses, want 4", info.Result.CacheMisses)
	}
	m1, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The warmed resubmit is answered from the store without the pool.
	info, err = cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var cacheEvents int
	info, err = cl.Wait(ctx, info.ID, func(ev daemon.Event) {
		if ev.Type == daemon.EventCache {
			cacheEvents++
		}
	})
	if err != nil || info.State != daemon.StateDone {
		t.Fatalf("warmed run: %v, state %s (%s)", err, info.State, info.Error)
	}
	if !info.Result.FromCache {
		t.Fatal("warmed run did not take the cache fast path")
	}
	if cacheEvents != 1 {
		t.Fatalf("warmed run emitted %d cache events, want 1", cacheEvents)
	}
	if info.Result.CacheHits != 4 || info.Result.CacheMisses != 0 {
		t.Fatalf("warmed run: %d hits / %d misses, want 4 / 0",
			info.Result.CacheHits, info.Result.CacheMisses)
	}
	m2, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Pool.CellsRun != m1.Pool.CellsRun {
		t.Fatalf("warmed run occupied the pool: cells_run %d -> %d",
			m1.Pool.CellsRun, m2.Pool.CellsRun)
	}
}

// TestWarmSpecializedSweepPlansOnce: a fully warmed sweep job over a
// specialized environment plans its grid once — one corpus, one profile
// replay — so it executes exactly the simulation events of one PlanSweep.
func TestWarmSpecializedSweepPlansOnce(t *testing.T) {
	_, cl := newTestServer(t, 1, true)
	spec := daemon.JobSpec{Type: daemon.TypeSweep, Scale: "quick", Envs: []string{"specialized-4"}}
	submitAndWait(t, cl, spec)

	envs, err := core.ParseEnvSpecs(spec.Envs)
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.TotalExecuted()
	core.PlanSweep(core.SweepOptions{Scale: daemon.ScaleFor("quick", 0), Envs: envs})
	plan := sim.TotalExecuted() - e0
	if plan == 0 {
		t.Fatal("planning a specialized sweep replayed no events")
	}

	e1 := sim.TotalExecuted()
	info := submitAndWait(t, cl, spec)
	events := sim.TotalExecuted() - e1
	if info.State != daemon.StateDone || !info.Result.FromCache {
		t.Fatalf("warm job ended %s (from_cache=%v)", info.State, info.Result != nil && info.Result.FromCache)
	}
	if events != plan {
		t.Fatalf("warm job executed %d simulation events, want one plan's %d", events, plan)
	}
}

func TestDaemonCancelMidSweepLeavesResumablePrefix(t *testing.T) {
	_, cl := newTestServer(t, 1, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := daemon.JobSpec{
		Type:   daemon.TypeSweep,
		Scale:  "quick",
		Envs:   []string{"native", "kvm-2", "docker-2"},
		Trials: 8, // 24 cells on one worker: a wide cancellation window
	}

	info, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel at the first completed cell; the stream then runs to its end.
	var progress int
	canceled := false
	_, err = cl.Wait(ctx, info.ID, func(ev daemon.Event) {
		if ev.Type == daemon.EventProgress {
			progress++
			if !canceled {
				canceled = true
				if _, err := cl.Cancel(ctx, info.ID); err != nil {
					t.Error(err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err = cl.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != daemon.StateCanceled {
		t.Fatalf("state %s, want canceled (sweep finished before cancel landed?)", info.State)
	}
	if progress == 0 || progress >= 24 {
		t.Fatalf("cancel landed after %d/24 cells; want mid-sweep", progress)
	}

	// Prompt cancellation: queued cells were dropped, so the number of
	// completed cells is far below the grid, and each completed cell is in
	// the cache. The resubmit resumes: exactly the missing cells miss.
	info2, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info2, err = cl.Wait(ctx, info2.ID, nil); err != nil || info2.State != daemon.StateDone {
		t.Fatalf("resume run: %v, state %s (%s)", err, info2.State, info2.Error)
	}
	if info2.Result.CacheHits != progress {
		t.Fatalf("resume reused %d cells, want the canceled run's %d", info2.Result.CacheHits, progress)
	}
	if info2.Result.CacheMisses != 24-progress {
		t.Fatalf("resume recomputed %d cells, want %d", info2.Result.CacheMisses, 24-progress)
	}
	if want := serialDigest(t, spec); info2.Result.Digest != want {
		t.Fatalf("resumed digest %s != serial %s", info2.Result.Digest, want)
	}
}

// Experiment jobs, blame's traced run included, render byte-identically
// to the same table entry run in-process.
func TestDaemonExperimentJob(t *testing.T) {
	_, cl := newTestServer(t, 2, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, name := range []string{"table1", "blame"} {
		info, err := cl.Submit(ctx, daemon.JobSpec{Type: daemon.TypeExperiment, Exp: name, Scale: "quick"})
		if err != nil {
			t.Fatal(err)
		}
		if info, err = cl.Wait(ctx, info.ID, nil); err != nil || info.State != daemon.StateDone {
			t.Fatalf("%s: %v, state %s (%s)", name, err, info.State, info.Error)
		}
		exp, err := core.LookupExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		local, err := exp.Run(ctx, core.QuickScale(), "")
		if err != nil {
			t.Fatal(err)
		}
		if info.Result.Rendered != local.Text {
			t.Fatalf("%s: daemon output differs from the local run:\n%s\nvs\n%s", name, info.Result.Rendered, local.Text)
		}
	}
}

// TestDaemonExperimentJobReportsFanout: an experiment job whose result
// carries its fan-out's metrics reports one cell per row and the hits and
// misses of the job's own lookups, cold and warm, equal to the same runs
// in-process against a fresh store. Isolation never consults the store,
// so it reports cells only.
func TestDaemonExperimentJobReportsFanout(t *testing.T) {
	_, cl := newTestServer(t, 2, true)
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := core.QuickScale()
	sc.Cache = store
	plan, _ := fault.Preset("mixed")
	for _, run := range []string{"cold", "warm"} {
		local, err := core.RunInterference(context.Background(), sc, plan)
		if err != nil {
			t.Fatal(err)
		}
		info := submitAndWait(t, cl, daemon.JobSpec{Type: daemon.TypeExperiment, Exp: "interference", Scale: "quick"})
		if info.State != daemon.StateDone {
			t.Fatalf("%s interference job: state %s (%s)", run, info.State, info.Error)
		}
		r := info.Result
		if r.Cells != len(local.Rows) || r.CacheHits != local.Par.CacheHits || r.CacheMisses != local.Par.CacheMisses {
			t.Errorf("%s interference job: %d cells, %d hits / %d misses; in-process run: %d, %d / %d",
				run, r.Cells, r.CacheHits, r.CacheMisses, len(local.Rows), local.Par.CacheHits, local.Par.CacheMisses)
		}
		if r.Rendered != local.Render() {
			t.Errorf("%s interference job renders differently from the in-process run", run)
		}
	}

	info := submitAndWait(t, cl, daemon.JobSpec{Type: daemon.TypeExperiment, Exp: "isolation", Scale: "quick"})
	local, err := core.RunIsolation(context.Background(), core.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if r := info.Result; info.State != daemon.StateDone || r.Cells != len(local.Rows) || r.CacheHits+r.CacheMisses != 0 {
		t.Errorf("isolation job: state %s, result %+v; want %d cells and no lookups", info.State, r, len(local.Rows))
	}
}

func TestDaemonCancelBeforeStartAndTerminalNoop(t *testing.T) {
	d, _ := newTestServer(t, 1, false)
	info, err := d.Submit(daemon.JobSpec{Type: daemon.TypeExperiment, Exp: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		in, _ := d.Job(info.ID)
		if in.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cancelling a terminal job changes nothing.
	in, ok := d.Cancel(info.ID)
	if !ok || in.State != daemon.StateDone {
		t.Fatalf("cancel on terminal job: ok=%v state=%s", ok, in.State)
	}
}

func TestRouterErrors(t *testing.T) {
	d, cl := newTestServer(t, 1, false)
	base := strings.TrimRight(cl.Base, "/")
	post := func(body string) *http.Response {
		resp, err := cl.HTTP.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check := func(resp *http.Response, want int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: got %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
		}
		var ae struct {
			Error string `json:"error"`
		}
		if want/100 != 2 {
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
				t.Fatalf("error response carried no JSON error (%v)", err)
			}
		}
	}

	check(post(`{not json`), http.StatusBadRequest)
	check(post(`{"type":"nonsense"}`), http.StatusBadRequest)
	check(post(`{"type":"sweep"}`), http.StatusBadRequest)                                  // no envs
	check(post(`{"type":"sweep","envs":["kvm-0"]}`), http.StatusBadRequest)                 // bad units
	check(post(`{"type":"sweep","scale":"quick","envs":["kvm-7"]}`), http.StatusBadRequest) // does not fit
	check(post(`{"type":"sweep","envs":["native","native"]}`), http.StatusBadRequest)       // duplicate
	check(post(`{"type":"experiment","exp":"nope"}`), http.StatusBadRequest)                // unknown exp
	check(post(`{"type":"sweep","envs":["native"],"fault":"nope"}`), http.StatusBadRequest) // unknown fault
	check(post(`{"type":"sweep","envs":["native"],"scale":"huge"}`), http.StatusBadRequest) // unknown scale
	// A grid at or past the sweep cell limit is refused before planning.
	check(post(`{"type":"sweep","envs":["native"],"trials":1099511627776}`), http.StatusBadRequest)
	// The interference ablation is an experiment job, and it takes no envs.
	check(post(`{"type":"interference"}`), http.StatusBadRequest)
	check(post(`{"type":"experiment","exp":"interference","envs":["native"]}`), http.StatusBadRequest)

	get := func(path string) *http.Response {
		resp, err := cl.HTTP.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check(get("/v1/jobs/job-999"), http.StatusNotFound)
	check(get("/v1/jobs/job-999/events"), http.StatusNotFound)
	check(get("/v1/healthz"), http.StatusOK)
	check(get("/v1/metrics"), http.StatusOK)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/job-999", nil)
	resp, err := cl.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound)

	// A real job with a bad since parameter.
	info, err := d.Submit(daemon.JobSpec{Type: daemon.TypeExperiment, Exp: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	check(get("/v1/jobs/"+info.ID+"/events?since=banana"), http.StatusBadRequest)
}

func TestJobSpecValidate(t *testing.T) {
	good := []daemon.JobSpec{
		{Type: "sweep", Envs: []string{"native"}},
		{Type: "sweep", Envs: []string{"kvm-8", "docker-64", "lightvm-16"}, Trials: 3, Fault: "mixed"},
		{Type: "experiment", Exp: "interference"},
		{Type: "experiment", Exp: "interference", Fault: "memstorm"},
		{Type: "experiment", Exp: "fig3", Scale: "quick", Seed: 42, Priority: 5},
		{Type: "experiment", Exp: "blame"},
		{Type: "sweep", Envs: dockerEnvs(64), Trials: 100},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	if s := (daemon.JobSpec{Type: "sweep", Envs: []string{"native"}}); s.Validate() == nil && s.Scale != "default" {
		t.Error("Validate did not normalize the default scale")
	}
	bad := []daemon.JobSpec{
		{},
		{Type: "sweep"},
		{Type: "sweep", Envs: []string{"vax-3"}},
		{Type: "sweep", Envs: []string{"native"}, Trials: -1},
		{Type: "experiment"},
		{Type: "sweep", Envs: []string{"kvm-7"}},
		{Type: "sweep", Envs: []string{"native", "lightvm-3"}},
		{Type: "interference"},
		{Type: "experiment", Exp: "interference", Envs: []string{"native"}},
		{Type: "experiment", Exp: "interference", Fault: "gremlins"},
		{Type: "experiment", Exp: "table2", Scale: "huge"},
		{Type: "sweep", Envs: []string{"native"}, Scale: "enormous"},
		{Type: "sweep", Envs: []string{"native"}, Fault: "gremlins"},
		{Type: "sweep", Envs: []string{"native"}, Trials: 1 << 40},
		{Type: "sweep", Envs: dockerEnvs(64), Trials: core.MaxSweepCells / 64},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// The cell boundary bounds the trial index the same way: a cell at
	// trial t belongs to a grid of t+1 trials.
	for trial, ok := range map[int]bool{0: true, core.MaxSweepCells - 2: true,
		core.MaxSweepCells - 1: false, 1 << 40: false, -1: false} {
		cs := daemon.CellSpec{Env: "native", Trial: trial}
		if err := cs.Validate(); (err == nil) != ok {
			t.Errorf("cell trial %d: Validate = %v, want accepted=%v", trial, err, ok)
		}
	}
}

// dockerEnvs returns n distinct container environments, docker-1 …
// docker-n.
func dockerEnvs(n int) []string {
	envs := make([]string, n)
	for i := range envs {
		envs[i] = fmt.Sprintf("docker-%d", i+1)
	}
	return envs
}

func TestDaemonMetricsShape(t *testing.T) {
	_, cl := newTestServer(t, 3, true)
	ctx := context.Background()
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pool.Workers != 3 {
		t.Fatalf("workers %d, want 3", m.Pool.Workers)
	}
	if m.Cache == nil {
		t.Fatal("cached daemon reported no cache metrics")
	}
	_, cl2 := newTestServer(t, 1, false)
	m2, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cache != nil {
		t.Fatal("cacheless daemon reported cache metrics")
	}
}
