package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
	"ksa/internal/trace"
	"ksa/internal/varbench"
)

// tinyScale is a deliberately small configuration so the end-to-end cache
// tests simulate real grids in milliseconds.
func tinyScale() Scale {
	return Scale{Seed: 7, CorpusPrograms: 6, Iterations: 3, Warmup: 1}
}

func openCache(t *testing.T) (*resultcache.Store, *bytes.Buffer) {
	t.Helper()
	st, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	st.SetLog(&log)
	return st, &log
}

func sweepOpts(sc Scale, trials int) SweepOptions {
	return SweepOptions{
		Scale:   sc,
		Machine: platform.Machine{Cores: 8, MemGB: 4},
		Envs: []EnvSpec{
			{Kind: platform.KindVMs, Units: 2},
			{Kind: platform.KindContainers, Units: 4},
		},
		Trials: trials,
	}
}

// encodeRuns collapses a sweep result to canonical bytes so two sweeps can
// be compared for bit-identity.
func encodeRuns(t *testing.T, r SweepResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, run := range r.Runs {
		buf.WriteString(run.Key())
		buf.Write(codec.EncodeResult(run.Res))
	}
	return buf.Bytes()
}

// A fully cached sweep's digest is the SHA-256 over each cell's key line
// and the payload the store holds for it, and computing it re-encodes every
// cell into one buffer: it allocates at most twice the largest payload.
func TestWarmSweepDigestHashesStoredPayloads(t *testing.T) {
	st, _ := openCache(t)
	sc := QuickScale()
	sc.Cache = st
	envs := must(ParseEnvSpecs([]string{"native", "kvm-8", "kvm-64", "docker-64", "specialized-64"}))
	o := SweepOptions{Scale: sc, Envs: envs, Trials: 2}
	must(RunSweep(context.Background(), o))
	plan := PlanSweep(o)
	warm := must(plan.Run(context.Background()))
	if warm.Par.CacheHits != 10 || warm.Par.CacheMisses != 0 {
		t.Fatalf("warm sweep: %d hits, %d misses, want 10 and 0", warm.Par.CacheHits, warm.Par.CacheMisses)
	}

	h := sha256.New()
	largest := 0
	for _, c := range plan.Cells {
		payload, ok := st.Get(plan.CacheKey(c))
		if !ok {
			t.Fatalf("cell %s missing from the store", c.JobKey)
		}
		fmt.Fprintf(h, "cell=%s seed=%#016x\n", c.JobKey, c.Seed)
		h.Write(payload)
		largest = max(largest, len(payload))
	}
	if got, want := warm.Digest(), hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest %s, want %s over the stored payloads", got, want)
	}

	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		warm.Digest()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if got > 2*float64(largest) {
		t.Fatalf("Digest allocated %.0f bytes, want at most %d (twice the largest payload)", got, 2*largest)
	}
	t.Logf("Digest allocated %.0f bytes; the largest payload is %d", got, largest)
}

func TestCachedSweepBitIdentity(t *testing.T) {
	sc := tinyScale()
	uncached := must(RunSweep(context.Background(), sweepOpts(sc, 2)))

	st, log := openCache(t)
	sc.Cache = st
	cold := must(RunSweep(context.Background(), sweepOpts(sc, 2)))
	warm := must(RunSweep(context.Background(), sweepOpts(sc, 2)))

	want := encodeRuns(t, uncached)
	if !bytes.Equal(encodeRuns(t, cold), want) {
		t.Fatal("cold cached sweep is not bit-identical to the uncached sweep")
	}
	if !bytes.Equal(encodeRuns(t, warm), want) {
		t.Fatal("warm cached sweep is not bit-identical to the uncached sweep")
	}

	cells := len(uncached.Runs)
	if uncached.Par.CacheHits != 0 || uncached.Par.CacheMisses != 0 {
		t.Fatalf("uncached sweep reported cache traffic: %+v", uncached.Par)
	}
	if cold.Par.CacheMisses != cells || cold.Par.CacheHits != 0 {
		t.Fatalf("cold sweep: %d hits / %d misses, want 0 / %d",
			cold.Par.CacheHits, cold.Par.CacheMisses, cells)
	}
	if warm.Par.CacheHits != cells || warm.Par.CacheMisses != 0 {
		t.Fatalf("warm sweep: %d hits / %d misses, want %d / 0",
			warm.Par.CacheHits, warm.Par.CacheMisses, cells)
	}
	if log.Len() != 0 {
		t.Fatalf("unexpected cache warnings: %s", log.String())
	}
}

func TestSweepResumeRunsOnlyMissingCells(t *testing.T) {
	// An interrupted grid is modeled by a smaller first invocation: trials
	// 0..1 land in the cache, then the full 0..3 grid reuses them and
	// simulates only the new cells.
	sc := tinyScale()
	st, _ := openCache(t)
	sc.Cache = st

	partial := must(RunSweep(context.Background(), sweepOpts(sc, 2)))
	if n := len(partial.Runs); n != 4 {
		t.Fatalf("partial grid has %d cells, want 4", n)
	}
	full := must(RunSweep(context.Background(), sweepOpts(sc, 4)))
	if full.Par.CacheHits != 4 || full.Par.CacheMisses != 4 {
		t.Fatalf("resume: %d hits / %d misses, want 4 / 4",
			full.Par.CacheHits, full.Par.CacheMisses)
	}
	// The resumed grid must agree cell-for-cell with an uncached run.
	sc.Cache = nil
	want := encodeRuns(t, must(RunSweep(context.Background(), sweepOpts(sc, 4))))
	if !bytes.Equal(encodeRuns(t, full), want) {
		t.Fatal("resumed sweep is not bit-identical to an uncached run")
	}
}

func TestInterferencePlanChangeReusesBaselines(t *testing.T) {
	sc := tinyScale()
	st, _ := openCache(t)
	sc.Cache = st
	planA, _ := fault.Preset("memstorm")
	planB, _ := fault.Preset("fsflush")

	first := must(RunInterference(context.Background(), sc, planA))
	cells := len(first.Rows)
	if first.Par.CacheMisses != 2*cells || first.Par.CacheHits != 0 {
		t.Fatalf("first plan: %d hits / %d misses, want 0 / %d",
			first.Par.CacheHits, first.Par.CacheMisses, 2*cells)
	}
	// A different plan over the same grid reuses every clean baseline and
	// simulates only the newly dosed halves.
	second := must(RunInterference(context.Background(), sc, planB))
	if second.Par.CacheHits != cells || second.Par.CacheMisses != cells {
		t.Fatalf("second plan: %d hits / %d misses, want %d / %d",
			second.Par.CacheHits, second.Par.CacheMisses, cells, cells)
	}
	// Rerunning the first plan is now fully warm.
	third := must(RunInterference(context.Background(), sc, planA))
	if third.Par.CacheHits != 2*cells || third.Par.CacheMisses != 0 {
		t.Fatalf("rerun: %d hits / %d misses, want %d / 0",
			third.Par.CacheHits, third.Par.CacheMisses, 2*cells)
	}
	if third.CSV() != first.CSV() {
		t.Fatal("fully cached interference CSV differs from the cold run")
	}
}

// TestInterferenceCountsOnlyItsOwnCells: a warm interference run reports
// one hit per cell lookup and no misses while another goroutine reads the
// same store — its counts come from its own cells, not from the store's
// process-wide counters.
func TestInterferenceCountsOnlyItsOwnCells(t *testing.T) {
	sc := tinyScale()
	st, _ := openCache(t)
	sc.Cache = st
	plan, _ := fault.Preset("mixed")
	must(RunInterference(context.Background(), sc, plan))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.Get(resultcache.Key{Kind: "absent"})
			}
		}
	}()
	warm, err := RunInterference(context.Background(), sc, plan)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if cells := 2 * len(warm.Rows); warm.Par.CacheHits != cells || warm.Par.CacheMisses != 0 {
		t.Fatalf("warm run beside another reader: %d hits / %d misses, want %d / 0",
			warm.Par.CacheHits, warm.Par.CacheMisses, cells)
	}
}

func TestCacheVerifyPanicsOnPoisonedEntry(t *testing.T) {
	sc := tinyScale()
	st, _ := openCache(t)
	c, _ := sc.GenerateCorpus()
	spec := EnvSpec{Kind: platform.KindVMs, Units: 2}
	m := platform.Machine{Cores: 8, MemGB: 4}
	opts := sc.vbOptions()

	honest := RunVarbenchCached(st, false, spec, m, c, opts)

	// Poison: overwrite the entry with a VALID encoding of a different
	// result. Plain lookups cannot tell; -cache-verify must.
	s := stats.NewSample(1)
	s.Add(99.5)
	wrong := varbench.NewResult(honest.Env, honest.Cores, honest.Iterations,
		[]varbench.SiteResult{{Site: varbench.Site{}, Syscall: 1, Sample: s}})
	key := varbenchKey(spec, m, opts, corpus.Digest(c, syscalls.Default()))
	if err := st.Put(key, codec.EncodeResult(wrong)); err != nil {
		t.Fatal(err)
	}

	// Without verify the poisoned entry is (wrongly, silently) served —
	// that is the attack -cache-verify exists to catch.
	if got := RunVarbenchCached(st, false, spec, m, c, opts); len(got.Sites) != 1 {
		t.Fatal("test setup broken: poisoned entry was not served")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("verify served a poisoned entry without panicking")
		}
		if !strings.Contains(r.(string), "not bit-identical") {
			t.Fatalf("panic %v does not name the bit-identity failure", r)
		}
	}()
	RunVarbenchCached(st, true, spec, m, c, opts)
}

func TestCorruptEntryRecomputedEndToEnd(t *testing.T) {
	sc := tinyScale()
	st, log := openCache(t)
	c, _ := sc.GenerateCorpus()
	spec := EnvSpec{Kind: platform.KindVMs, Units: 2}
	m := platform.Machine{Cores: 8, MemGB: 4}
	opts := sc.vbOptions()

	first := RunVarbenchCached(st, false, spec, m, c, opts)

	// Truncate every entry file in place (a crash mid-write on a filesystem
	// without atomic rename would look like this).
	var damaged int
	err := filepath.Walk(st.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		damaged++
		return os.Truncate(path, info.Size()/2)
	})
	if err != nil || damaged == 0 {
		t.Fatalf("damaged %d entries, err %v", damaged, err)
	}

	second := RunVarbenchCached(st, false, spec, m, c, opts)
	if !bytes.Equal(codec.EncodeResult(first), codec.EncodeResult(second)) {
		t.Fatal("recomputed result differs from the original")
	}
	if log.Len() == 0 {
		t.Fatal("corrupt entry served without a warning")
	}
	// The recompute wrote the entry back; a third run is a clean hit.
	before := st.Stats()
	RunVarbenchCached(st, false, spec, m, c, opts)
	if d := st.Stats().Sub(before); d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("after recovery: %+v, want a clean hit", d)
	}
}

func TestTracedRunsBypassCache(t *testing.T) {
	sc := tinyScale()
	st, _ := openCache(t)
	sc.Cache = st
	c, _ := sc.GenerateCorpus()
	opts := sc.vbOptions()
	opts.Trace = &trace.Options{}
	res, _ := sc.cachedCell(EnvSpec{Kind: platform.KindVMs, Units: 2},
		platform.Machine{Cores: 8, MemGB: 4}, c, "ignored", opts)
	if res == nil || len(res.Sites) == 0 {
		t.Fatal("traced run produced no result")
	}
	if s := st.Stats(); s.Lookups() != 0 || s.Puts != 0 {
		t.Fatalf("traced run touched the cache: %+v", s)
	}

	// RunSweep with Trace set must also leave the store untouched.
	o := sweepOpts(sc, 1)
	o.Trace = true
	swept := must(RunSweep(context.Background(), o))
	if s := st.Stats(); s.Lookups() != 0 || s.Puts != 0 {
		t.Fatalf("traced sweep touched the cache: %+v", s)
	}
	if swept.Par.CacheHits != 0 || swept.Par.CacheMisses != 0 {
		t.Fatalf("traced sweep reported cache traffic: %+v", swept.Par)
	}

	// Contention-recording cells bypass identically: the isolation recorder
	// is as unserializable as a live tracer, so such runs must neither read
	// nor write entries (a cached payload could never carry the recorder).
	copts := sc.vbOptions()
	copts.Contention = true
	cres, _ := sc.cachedCell(EnvSpec{Kind: platform.KindVMs, Units: 2},
		platform.Machine{Cores: 8, MemGB: 4}, c, "ignored", copts)
	if cres == nil || cres.Isolation == nil {
		t.Fatal("contention run carried no recorder")
	}
	if s := st.Stats(); s.Lookups() != 0 || s.Puts != 0 {
		t.Fatalf("contention run touched the cache: %+v", s)
	}
}

func TestVarbenchKeyInvalidation(t *testing.T) {
	sc := tinyScale()
	spec := EnvSpec{Kind: platform.KindVMs, Units: 2}
	m := platform.Machine{Cores: 8, MemGB: 4}
	opts := sc.vbOptions()
	base := varbenchKey(spec, m, opts, "digest0")

	plan, _ := fault.Preset("memstorm")
	optsIters := opts
	optsIters.Iterations = opts.Iterations + 1
	optsSeed := opts
	optsSeed.Seed = opts.Seed + 1
	optsFault := opts
	optsFault.Faults = &plan
	bigger := m
	bigger.Cores = 16

	variants := []resultcache.Key{
		varbenchKey(spec, m, optsIters, "digest0"),                                        // harness length
		varbenchKey(spec, m, optsSeed, "digest0"),                                         // seed
		varbenchKey(spec, m, opts, "digest1"),                                             // corpus
		varbenchKey(spec, m, optsFault, "digest0"),                                        // fault plan
		varbenchKey(spec, bigger, opts, "digest0"),                                        // machine
		varbenchKey(EnvSpec{Kind: platform.KindVMs, Units: 4}, m, opts, "digest0"),        // partitioning
		varbenchKey(EnvSpec{Kind: platform.KindContainers, Units: 2}, m, opts, "digest0"), // substrate
	}
	seen := map[string]bool{base.Hash(): true}
	for i, k := range variants {
		if seen[k.Hash()] {
			t.Fatalf("variant %d (%+v) does not invalidate the key", i, k)
		}
		seen[k.Hash()] = true
	}
	// And the salt: a CodeVersion bump must orphan every entry.
	bumped := base
	bumped.Salt = base.Salt + "-next"
	if bumped.Hash() == base.Hash() {
		t.Fatal("salt change does not invalidate the key")
	}
}
