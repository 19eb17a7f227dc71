package distsweep

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ksa/internal/core"
	"ksa/internal/daemon"
	"ksa/internal/resultcache"
	"ksa/internal/runner"
	"ksa/internal/sim"
)

// newWorker stands up one in-process worker daemon over httptest — the
// same router and backend a spawned ksad serves, minus the process
// boundary (chaos_test.go covers that).
func newWorker(t *testing.T, cacheDir string) *httptest.Server {
	t.Helper()
	var cache *resultcache.Store
	if cacheDir != "" {
		var err error
		cache, err = resultcache.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
	}
	d := daemon.New(daemon.Config{Workers: 2, Cache: cache})
	ts := httptest.NewServer(daemon.NewRouter(d))
	t.Cleanup(func() { ts.Close(); d.Close() })
	return ts
}

func quickSpec() core.SweepSpec {
	return core.SweepSpec{
		Scale:  "quick",
		Envs:   []string{"native", "kvm-4", "docker-8"},
		Trials: 3,
	}
}

// serialSweep runs the same grid in-process (no cache) and returns its
// result — the digest oracle every distributed run must match.
func serialSweep(t *testing.T, spec core.SweepSpec) core.SweepResult {
	t.Helper()
	o, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	o.Scale.Parallel = 1
	res, err := core.RunSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunMatchesSerialDigest is the bit-identity contract: a sweep
// sharded across three workers (sharing one cache directory) merges to
// the exact digest of a serial, uncached, single-process run — and a
// repeat run is answered entirely from the workers' shared cache.
func TestRunMatchesSerialDigest(t *testing.T) {
	cacheDir := t.TempDir()
	workers := []string{
		newWorker(t, cacheDir).URL,
		newWorker(t, cacheDir).URL,
		newWorker(t, cacheDir).URL,
	}
	want := serialSweep(t, quickSpec()).Digest()

	res, err := Run(context.Background(), Options{
		Spec: quickSpec(), Workers: workers, LeaseTTL: 5 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sweep.Digest(); got != want {
		t.Fatalf("distributed digest %s != serial %s", got, want)
	}
	if res.Dispatch.Completed != 9 {
		t.Fatalf("Completed=%d want 9", res.Dispatch.Completed)
	}

	// Repeat: every cell is on the shared disk now, so every worker
	// answers from cache and the digest still matches.
	res2, err := Run(context.Background(), Options{
		Spec: quickSpec(), Workers: workers, LeaseTTL: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RemoteHits != 9 {
		t.Fatalf("warm rerun: RemoteHits=%d want 9", res2.RemoteHits)
	}
	if got := res2.Sweep.Digest(); got != want {
		t.Fatalf("warm digest %s != serial %s", got, want)
	}
}

// TestRunUncachedWorkersStillBitIdentical drops the shared cache
// entirely: workers coordinate through nothing at all, payloads travel
// only over the wire, and determinism alone keeps the digest equal.
func TestRunUncachedWorkersStillBitIdentical(t *testing.T) {
	workers := []string{newWorker(t, "").URL, newWorker(t, "").URL}
	want := serialSweep(t, quickSpec()).Digest()
	res, err := Run(context.Background(), Options{Spec: quickSpec(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sweep.Digest(); got != want {
		t.Fatalf("uncached distributed digest %s != serial %s", got, want)
	}
}

// TestRunRetriesHeldLease plants a foreign lease on one cell and checks
// the coordinator backs off, retries, and steals it after expiry rather
// than failing or duplicating state.
func TestRunRetriesHeldLease(t *testing.T) {
	cacheDir := t.TempDir()
	worker := newWorker(t, cacheDir).URL
	spec := quickSpec()

	// Derive the first cell's key exactly as the worker will and claim it
	// as a phantom coordinator with a short TTL.
	o, _ := spec.Options()
	store, err := resultcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	o.Scale.Cache = store
	plan := core.PlanSweep(o)
	ok, _ := store.TryClaim(plan.CacheKey(plan.Cells[0]), "phantom", 400*time.Millisecond)
	if !ok {
		t.Fatal("planting the phantom lease failed")
	}

	res, err := Run(context.Background(), Options{
		Spec: spec, Workers: []string{worker},
		LeaseTTL: 2 * time.Second, HoldWait: 50 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatch.Retries == 0 {
		t.Fatal("coordinator never saw the held lease")
	}
	if got, want := res.Sweep.Digest(), serialSweep(t, spec).Digest(); got != want {
		t.Fatalf("digest after lease conflict %s != serial %s", got, want)
	}
}

// TestRunWorkerConnectionLossFailsOver severs one worker's connections
// mid-sweep; its slot retires and the surviving worker completes the
// grid with the serial digest.
func TestRunWorkerConnectionLossFailsOver(t *testing.T) {
	cacheDir := t.TempDir()
	doomed := newWorker(t, cacheDir)
	survivor := newWorker(t, cacheDir)
	var done atomic.Int32
	res, err := Run(context.Background(), Options{
		Spec:    quickSpec(),
		Workers: []string{doomed.URL, survivor.URL},
		Progress: func(_, _ int, _ string, _ bool) {
			if done.Add(1) == 2 {
				// Sever mid-sweep: in-flight requests die, the next claim
				// against this worker gets connection-refused.
				doomed.CloseClientConnections()
				doomed.Close()
			}
		},
		LeaseTTL: 2 * time.Second, HoldWait: 50 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("failover run: %v (%s)", err, res.Dispatch)
	}
	if res.Dispatch.SlotFailures == 0 {
		t.Fatalf("no slot failure recorded: %s", res.Dispatch)
	}
	if got, want := res.Sweep.Digest(), serialSweep(t, quickSpec()).Digest(); got != want {
		t.Fatalf("failover digest %s != serial %s", got, want)
	}
}

// TestRunSeedMismatchAborts: a worker answering with the wrong derived
// seed is running a different grid — that must abort the sweep, not
// retire a slot or retry.
func TestRunSeedMismatchAborts(t *testing.T) {
	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(daemon.CellResult{ //nolint:errcheck
			JobKey: "native/trial=0", Seed: 0xdead, Payload: []byte{1},
		})
	}))
	defer rogue.Close()
	_, err := Run(context.Background(), Options{
		Spec:    core.SweepSpec{Scale: "quick", Envs: []string{"native"}, Trials: 1},
		Workers: []string{rogue.URL},
	})
	if err == nil || !strings.Contains(err.Error(), "derived seed") {
		t.Fatalf("seed mismatch returned %v", err)
	}
	if errors.Is(err, runner.ErrSlotFailed) || errors.Is(err, runner.ErrRetryItem) {
		t.Fatalf("seed mismatch was classified as retryable: %v", err)
	}
}

// TestRunValidation rejects malformed grids before contacting anything.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"no workers", Options{Spec: core.SweepSpec{Envs: []string{"native"}}}},
		{"bad scale", Options{Spec: core.SweepSpec{Scale: "huge", Envs: []string{"native"}}, Workers: []string{"http://x"}}},
		{"bad env", Options{Spec: core.SweepSpec{Envs: []string{"mainframe-3"}}, Workers: []string{"http://x"}}},
		{"dup env", Options{Spec: core.SweepSpec{Envs: []string{"kvm-8", "kvm-8"}}, Workers: []string{"http://x"}}},
		{"bad fault", Options{Spec: core.SweepSpec{Envs: []string{"native"}, Fault: "gremlins"}, Workers: []string{"http://x"}}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.o); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunRejectsBadGridBeforeAnyRequest: a grid the shared resolver
// rejects — an environment that does not fit the machine, or one of
// MaxSweepCells cells — is Run's error, returned before any worker is
// contacted, and never a worker failure.
func TestRunRejectsBadGridBeforeAnyRequest(t *testing.T) {
	var requests atomic.Int32
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "stub worker", http.StatusInternalServerError)
	}))
	defer worker.Close()
	for _, spec := range []core.SweepSpec{
		{Scale: "quick", Envs: []string{"kvm-7"}},
		{Scale: "quick", Envs: []string{"native"}, Trials: core.MaxSweepCells},
	} {
		_, want := spec.Options()
		if want == nil {
			t.Fatalf("resolver accepted %+v", spec)
		}
		_, err := Run(context.Background(), Options{Spec: spec, Workers: []string{worker.URL}})
		if err == nil || !strings.Contains(err.Error(), want.Error()) || errors.Is(err, runner.ErrSlotFailed) {
			t.Errorf("%v × %d trials: Run returned %v, want the resolver's %q", spec.Envs, spec.Trials, err, want)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("coordinator sent %d request(s) for grids it should have rejected", n)
	}
}

// TestCoordinatorDoesNotSimulate: the coordinator enumerates the grid's
// cells, it never runs them. A grid with a specialized environment, whose
// full plan would profile the corpus, executes no simulation event before
// its first request fails against a dead fleet.
func TestCoordinatorDoesNotSimulate(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	before := sim.TotalExecuted()
	_, err := Run(context.Background(), Options{
		Spec:    core.SweepSpec{Scale: "quick", Envs: []string{"native", "specialized-8"}},
		Workers: []string{dead.URL},
	})
	if err == nil {
		t.Fatal("dead fleet returned no error")
	}
	if n := sim.TotalExecuted() - before; n != 0 {
		t.Fatalf("coordinator executed %d simulation events, want 0", n)
	}
}

// TestRunAllWorkersDeadErrors: a fleet of refused connections must
// surface an error, not hang or return a truncated success.
func TestRunAllWorkersDeadErrors(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // refused from the first request
	_, err := Run(context.Background(), Options{
		Spec:    core.SweepSpec{Scale: "quick", Envs: []string{"native"}, Trials: 2},
		Workers: []string{dead.URL, dead.URL},
	})
	if err == nil || !errors.Is(err, runner.ErrSlotFailed) {
		t.Fatalf("all-dead fleet returned %v", err)
	}
}
