package core

import (
	"bytes"
	"fmt"

	"ksa/internal/cluster"
	"ksa/internal/corpus"
	"ksa/internal/fault"
	"ksa/internal/platform"
	"ksa/internal/resultcache"
	"ksa/internal/resultcache/codec"
	"ksa/internal/runner"
	"ksa/internal/sim"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// Payload kinds stored by the experiment runners.
const (
	cacheKindVarbench = "varbench"
	cacheKindCluster  = "cluster"
)

// corpusDigest returns the cache-key digest of c, or "" when the cache is
// off (the digest costs one text serialization; skip it for uncached
// runs).
func (sc Scale) corpusDigest(c *corpus.Corpus) string {
	if sc.Cache == nil {
		return ""
	}
	return corpus.Digest(c, syscalls.Default())
}

// varbenchKey builds the cache key for one harness run: the complete input
// set of the pure function varbench.Run ∘ EnvSpec.Build — the environment
// on machine m, the harness options (their fingerprint, fault plan
// signature and seed) and the corpus digest. The experiment that asks is
// deliberately NOT part of the key — Table 2's kvm-64 cell and Figure 2's
// are the same computation and share one entry. For specialized
// environments the generating profile's signature joins the environment
// fingerprint: the profile determines the generated kernels, so results
// from different profiles (or from full-surface kernels) must address
// different entries.
func varbenchKey(env EnvSpec, m platform.Machine, opts varbench.Options, corpusDigest string) resultcache.Key {
	envFP := fmt.Sprintf("%s@%dc%gg", env, m.Cores, m.MemGB)
	if env.Kind == platform.KindSpecialized && env.Profile != nil {
		envFP += "/prof=" + env.Profile.Sig()
	}
	return resultcache.Key{
		Salt:     resultcache.CodeVersion,
		Kind:     cacheKindVarbench,
		Env:      envFP,
		Opts:     opts.Fingerprint(),
		FaultSig: faultSigOf(opts.Faults),
		Corpus:   corpusDigest,
		Seed:     opts.Seed,
	}
}

// cacheThrough serves one cell through st: a stored entry that decodes is
// the result (with verify set the cell is recomputed too, and its encoding
// must equal the entry byte for byte); an entry that does not decode is
// reclassified as a miss; on a miss the cell runs and its encoding is
// written through. It reports whether the store served the result — the
// per-cell flag fan-outs count their cache hits and misses from.
func cacheThrough[T any](st *resultcache.Store, verify bool, key resultcache.Key,
	encode func(T) []byte, decode func([]byte) (T, error), run func() T) (T, bool) {
	if payload, ok := st.Get(key); ok {
		res, err := decode(payload)
		if err == nil {
			if verify {
				verifyHit(key, payload, encode(run()))
			}
			return res, true
		}
		st.Corrupt(key, err)
	}
	res := run()
	st.Put(key, encode(res))
	return res, false
}

// cachedCluster runs one cluster cell through the store when the cache is
// on.
func (sc Scale) cachedCluster(cfg cluster.Config, noiseDigest string) cluster.Result {
	if sc.Cache == nil {
		return cluster.Run(cfg)
	}
	key := resultcache.Key{
		Salt:     resultcache.CodeVersion,
		Kind:     cacheKindCluster,
		Env:      cfg.Fingerprint(),
		FaultSig: faultSigOf(cfg.Faults),
		Corpus:   noiseDigest,
		Seed:     cfg.Seed,
	}
	res, _ := cacheThrough(sc.Cache, sc.CacheVerify, key, codec.EncodeCluster, codec.DecodeCluster,
		func() *cluster.Result {
			res := cluster.Run(cfg)
			return &res
		})
	return *res
}

// verifyHit asserts the recomputed encoding matches the stored one. A
// mismatch means either the cache was poisoned or the code drifted without
// a resultcache.CodeVersion bump — both are audit failures worth stopping
// the run for.
func verifyHit(key resultcache.Key, stored, fresh []byte) {
	if !bytes.Equal(stored, fresh) {
		panic(fmt.Sprintf("resultcache: verify failed for %s (entry %s): cached entry is not bit-identical to recomputation — poisoned cache or unbumped CodeVersion",
			key.Env, key.Hash()[:12]))
	}
}

// store returns the result store a cell run with opts reads and writes:
// none when the cache is off, and none for traced or contention-recording
// runs — their Results carry live tracers / an isolation recorder that
// cannot be serialized, and a cached payload could not reproduce them — so
// such runs neither read nor write entries.
func (sc Scale) store(opts varbench.Options) *resultcache.Store {
	if opts.Trace != nil || opts.Contention {
		return nil
	}
	return sc.Cache
}

// cachedCell is the one path every environment cell takes — tables,
// figures, sweeps, interference pairs, blame and isolation alike: build
// spec on m and run corpus c through the harness, through the store when
// sc.store allows it, and report whether the store served the result. The
// cell's entire randomness is opts.Seed: it seeds both environment
// construction and the harness. digest is c's cache digest.
func (sc Scale) cachedCell(spec EnvSpec, m platform.Machine, c *corpus.Corpus,
	digest string, opts varbench.Options) (*varbench.Result, bool) {
	run := func() *varbench.Result {
		return varbench.Run(spec.Build(sim.NewEngine(), m, opts.Seed), c, opts)
	}
	st := sc.store(opts)
	if st == nil {
		return run(), false
	}
	return cacheThrough(st, sc.CacheVerify, varbenchKey(spec, m, opts, digest),
		codec.EncodeResult, codec.DecodeResult, run)
}

// countCache sets m's cache counts from the hit flags of the cell lookups
// that ran. The counts come from the fan-out's own cells, so they stay
// exact when other fan-outs share the store.
func countCache(m *runner.Metrics, hits []bool) {
	for _, hit := range hits {
		if hit {
			m.CacheHits++
		} else {
			m.CacheMisses++
		}
	}
}

// RunVarbenchCached is the single-run entry point the varbench CLI uses:
// build the environment from its spec (construction randomness and harness
// randomness both come from opts.Seed) and run the corpus through the
// cache. With a nil store — or a traced run, whose live tracers cannot be
// serialized — it is exactly an uncached varbench.Run.
func RunVarbenchCached(st *resultcache.Store, verify bool, spec EnvSpec,
	m platform.Machine, c *corpus.Corpus, opts varbench.Options) *varbench.Result {
	sc := Scale{Cache: st, CacheVerify: verify}
	res, _ := sc.cachedCell(spec, m, c, sc.corpusDigest(c), opts)
	return res
}

// faultSigOf returns the plan's signature or "" for nil.
func faultSigOf(p *fault.Plan) string {
	if p == nil {
		return ""
	}
	return p.Sig()
}
