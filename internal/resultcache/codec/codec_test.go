package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"ksa/internal/cluster"
	"ksa/internal/fuzz"
	"ksa/internal/platform"
	"ksa/internal/rng"
	"ksa/internal/sim"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// smallResult builds a tiny hand-assembled Result with fully pinned
// contents, used by the golden and round-trip tests.
func smallResult() *varbench.Result {
	s0 := stats.NewSample(3)
	s0.AddAll([]float64{1.5, 2.25, 0.5}) // deliberately unsorted
	s1 := stats.NewSample(2)
	s1.AddAll([]float64{10, 100.125})
	return varbench.NewResult("kvm-4x16", 64, 20, []varbench.SiteResult{
		{Site: varbench.Site{Program: 0, Call: 0}, Syscall: 7, Sample: s0},
		{Site: varbench.Site{Program: 3, Call: 2}, Syscall: 123, Sample: s1},
	})
}

func TestResultRoundTrip(t *testing.T) {
	r := smallResult()
	enc := EncodeResult(r)
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Env != r.Env || dec.Cores != r.Cores || dec.Iterations != r.Iterations {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if len(dec.Sites) != len(r.Sites) {
		t.Fatalf("%d sites, want %d", len(dec.Sites), len(r.Sites))
	}
	for i, sr := range dec.Sites {
		want := r.Sites[i]
		if sr.Site != want.Site || sr.Syscall != want.Syscall {
			t.Fatalf("site %d identity mismatch", i)
		}
		// Samples round-trip in canonical (sorted) order; every order
		// statistic is preserved exactly.
		a, b := sr.Sample.Values(), want.Sample.Values()
		if len(a) != len(b) {
			t.Fatalf("site %d: %d values, want %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("site %d value %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
	// The site index must be rebuilt.
	if s := dec.SiteSample(varbench.Site{Program: 3, Call: 2}); s == nil || s.Max() != 100.125 {
		t.Fatal("site index not rebuilt on decode")
	}
	// Canonical: re-encoding the decoded result reproduces the bytes.
	if !bytes.Equal(EncodeResult(dec), enc) {
		t.Fatal("Encode(Decode(b)) != b")
	}
}

// realRun runs a small real harness grid: sketch-backed sites with the
// windows a real latency stream fills.
func realRun() *varbench.Result {
	opts := fuzz.NewOptions(7)
	opts.TargetPrograms = 6
	c, _ := fuzz.Generate(opts)
	env := platform.VMs(sim.NewEngine(), platform.Machine{Cores: 8, MemGB: 4}, 2, rng.New(7))
	return varbench.Run(env, c, varbench.Options{Iterations: 3, Warmup: 1, Seed: 7})
}

// exactResult is a small exact-backed result (the Options.ExactStats
// oracle path).
func exactResult() *varbench.Result {
	s := stats.NewExactSample(2)
	s.AddAll([]float64{2.25, 0.5})
	return varbench.NewResult("native", 1, 1, []varbench.SiteResult{
		{Site: varbench.Site{}, Syscall: 7, Sample: s},
	})
}

func TestResultRoundTripRealRun(t *testing.T) {
	// A real harness run (small grid) must survive the codec with every
	// downstream statistic intact, and encode canonically.
	res := realRun()
	enc := EncodeResult(res)
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeResult(dec), enc) {
		t.Fatal("re-encode of a real run is not canonical")
	}
	for i, sr := range res.Sites {
		ds := dec.Sites[i]
		if sr.Sample.Median() != ds.Sample.Median() ||
			sr.Sample.P99() != ds.Sample.P99() ||
			sr.Sample.Max() != ds.Sample.Max() {
			t.Fatalf("site %d order statistics drifted through the codec", i)
		}
	}
	if res.MedianBreakdown() != dec.MedianBreakdown() {
		t.Fatal("median breakdown drifted through the codec")
	}
}

// goldenBytes loads a pinned encoding from testdata (hex, one line).
func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad golden %s: %v", name, err)
	}
	return b
}

// TestResultGolden pins the byte-exact v2 encoding of sketch-backed sites
// (the default backend; the sketch's dense count window makes the payload
// too large for an inline constant, so it lives in testdata). If this test
// fails the format changed: bump ResultVersion (and resultcache.CodeVersion)
// instead of updating the golden in place.
func TestResultGolden(t *testing.T) {
	enc := EncodeResult(smallResult())
	if want := goldenBytes(t, "golden_result_v2.hex"); !bytes.Equal(enc, want) {
		t.Fatalf("encoding drifted from golden v2:\n got %x\nwant %x", enc, want)
	}
}

// TestResultGoldenExact pins the v2 encoding of an exact-backed site (tag
// 0), the Options.ExactStats oracle path.
func TestResultGoldenExact(t *testing.T) {
	enc := EncodeResult(exactResult())
	if want := goldenBytes(t, "golden_exact_v2.hex"); !bytes.Equal(enc, want) {
		t.Fatalf("exact encoding drifted from golden v2:\n got %x\nwant %x", enc, want)
	}
}

func TestClusterRoundTrip(t *testing.T) {
	r := &cluster.Result{
		App: "xapian", Env: "kvm", Contended: true,
		Runtime: 123456789, MeanNodeTime: 1234,
		IterTimes: []sim.Time{100, 200, 300},
	}
	enc := EncodeCluster(r)
	dec, err := DecodeCluster(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.App != r.App || dec.Env != r.Env || dec.Contended != r.Contended ||
		dec.Runtime != r.Runtime || dec.MeanNodeTime != r.MeanNodeTime ||
		len(dec.IterTimes) != 3 || dec.IterTimes[2] != 300 {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
	if !bytes.Equal(EncodeCluster(dec), enc) {
		t.Fatal("Encode(Decode(b)) != b")
	}
	if dec.StragglerFactor() != r.StragglerFactor() {
		t.Fatal("derived straggler factor drifted")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	enc := EncodeResult(smallResult())
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad-magic", append([]byte("XXXX"), enc[4:]...)},
		{"version-bump", func() []byte {
			b := append([]byte(nil), enc...)
			b[4] = ResultVersion + 1
			return b
		}()},
		{"trailing-garbage", append(append([]byte(nil), enc...), 0xff)},
		{"cluster-payload", EncodeCluster(&cluster.Result{App: "a", Env: "kvm"})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResult(tc.b); err == nil {
				t.Fatal("damaged payload decoded without error")
			}
		})
	}
	// Every possible truncation must error, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeResult(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	cenc := EncodeCluster(&cluster.Result{App: "a", Env: "kvm", IterTimes: []sim.Time{1, 2}})
	for n := 0; n < len(cenc); n++ {
		if _, err := DecodeCluster(cenc[:n]); err == nil {
			t.Fatalf("cluster truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := DecodeCluster(EncodeResult(smallResult())); err == nil {
		t.Fatal("result payload decoded as cluster")
	}
	// A contended flag other than 0 or 1 would re-encode as 0.
	bad := EncodeCluster(&cluster.Result{App: "a", Env: "kvm"})
	bad[len(clusterMagic)+1+4+len("a")+4+len("kvm")] = 2
	if _, err := DecodeCluster(bad); err == nil {
		t.Fatal("cluster payload with contended flag 2 decoded without error")
	}
}

func TestEncodeCanonicalizesSampleOrder(t *testing.T) {
	// Two results equal up to sample insertion order encode identically —
	// the property that makes -cache-verify's byte-equality meaningful.
	a := stats.NewSample(3)
	a.AddAll([]float64{3, 1, 2})
	b := stats.NewSample(3)
	b.AddAll([]float64{1, 2, 3})
	mk := func(s *stats.Sample) *varbench.Result {
		return varbench.NewResult("native", 1, 1, []varbench.SiteResult{
			{Site: varbench.Site{}, Syscall: syscalls.ID(1), Sample: s},
		})
	}
	if !bytes.Equal(EncodeResult(mk(a)), EncodeResult(mk(b))) {
		t.Fatal("insertion order leaked into the encoding")
	}
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(smallResult()))
	f.Add([]byte("KSVB"))
	f.Add([]byte{})
	f.Add(EncodeResult(exactResult()))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Decoding arbitrary bytes must never panic, and every payload that
		// decodes is canonical: it re-encodes to itself.
		r, err := DecodeResult(b)
		if err == nil && !bytes.Equal(EncodeResult(r), b) {
			t.Fatalf("Encode(Decode(b)) != b for %x", b)
		}
	})
}

func FuzzDecodeCluster(f *testing.F) {
	f.Add(EncodeCluster(&cluster.Result{App: "a", Env: "kvm", IterTimes: []sim.Time{1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeCluster(b)
		if err == nil && !bytes.Equal(EncodeCluster(r), b) {
			t.Fatalf("Encode(Decode(b)) != b for %x", b)
		}
	})
}

func TestFloatBitsPreserved(t *testing.T) {
	// Latencies are float64 microseconds; the codec must preserve exact
	// bit patterns (including subnormals and extreme magnitudes), not just
	// approximate values.
	vals := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.1, 1e300, math.MaxFloat64}
	s := stats.NewExactSample(len(vals))
	s.AddAll(vals)
	r := varbench.NewResult("native", 1, 1, []varbench.SiteResult{
		{Site: varbench.Site{}, Syscall: 1, Sample: s},
	})
	dec, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	got := dec.Sites[0].Sample.Values()
	for i, v := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(v))
		}
	}
}

// TestDecodeRejectsBadSketch hand-assembles structurally damaged and
// non-canonical sites: the decoder must reject an untrimmed window, an
// out-of-range base, an unknown backend tag, an empty sketch with finite
// extremes, exact values out of order and a syscall id wider than
// syscalls.ID with an error, never a panic. The canonical twins of the
// last three decode and re-encode to themselves.
func TestDecodeRejectsBadSketch(t *testing.T) {
	build := func(sys uint32, site func(w *writer)) []byte {
		w := writer{}
		w.bytes([]byte(resultMagic))
		w.u8(ResultVersion)
		w.str("native")
		w.u32(1) // cores
		w.u32(1) // iterations
		w.u32(1) // sites
		w.u32(0) // program
		w.u32(0) // call
		w.u32(sys)
		site(&w)
		return w.buf
	}
	sketchSite := func(min, max float64, base uint32, counts ...uint64) func(w *writer) {
		return func(w *writer) {
			w.u8(sampleTagSketch)
			w.u64(0) // zero bucket
			w.u64(math.Float64bits(min))
			w.u64(math.Float64bits(max))
			w.u32(base)
			w.u32(uint32(len(counts)))
			for _, c := range counts {
				w.u64(c)
			}
		}
	}
	exactSite := func(vals ...float64) func(w *writer) {
		return func(w *writer) {
			w.u8(sampleTagExact)
			w.u32(uint32(len(vals)))
			for _, v := range vals {
				w.u64(math.Float64bits(v))
			}
		}
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"untrimmed-window", build(7, sketchSite(1, 2, 100, 0, 5))},
		{"base-out-of-range", build(7, sketchSite(1, 2, 1<<30, 1))},
		{"unknown-tag", build(7, func(w *writer) { w.u8(9) })},
		{"empty-sketch-with-extremes", build(7, sketchSite(1, 2, 0))},
		{"exact-values-out-of-order", build(7, exactSite(0.5, 2.25, 1))},
		{"syscall-out-of-range", build(1<<16+7, exactSite(0.5))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResult(tc.b); err == nil {
				t.Fatal("damaged or non-canonical site decoded without error")
			}
		})
	}
	for _, b := range [][]byte{
		build(7, sketchSite(math.Inf(1), math.Inf(-1), 0)),
		build(7, exactSite(0.5, 1, 1, 2.25)),
		build(math.MaxUint16, exactSite(0.5)),
	} {
		r, err := DecodeResult(b)
		if err != nil {
			t.Fatalf("canonical payload %x rejected: %v", b, err)
		}
		if !bytes.Equal(EncodeResult(r), b) {
			t.Fatalf("canonical payload %x does not re-encode to itself", b)
		}
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call.
func allocBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// EncodeResult sizes its payload before writing it: one allocation, with
// no spare capacity, for sketch-backed and exact-backed results alike.
func TestEncodeResultAllocatesOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    *varbench.Result
	}{{"sketch", smallResult()}, {"exact", exactResult()}, {"real-run", realRun()}} {
		if n := testing.AllocsPerRun(100, func() { EncodeResult(tc.r) }); n != 1 {
			t.Errorf("%s: EncodeResult made %v allocations, want 1", tc.name, n)
		}
		if enc := EncodeResult(tc.r); cap(enc) != len(enc) {
			t.Errorf("%s: payload cap %d, len %d", tc.name, cap(enc), len(enc))
		}
	}
}

// AppendResult appends EncodeResult's bytes after whatever dst holds, and
// a buffer that already has room takes them without allocating.
func TestAppendResult(t *testing.T) {
	r := realRun()
	enc := EncodeResult(r)
	if got := AppendResult([]byte("cell"), r); !bytes.Equal(got, append([]byte("cell"), enc...)) {
		t.Fatal("AppendResult did not append EncodeResult's bytes to dst")
	}
	buf := make([]byte, 0, len(enc))
	if n := testing.AllocsPerRun(100, func() { buf = AppendResult(buf[:0], r) }); n != 0 {
		t.Fatalf("AppendResult into a buffer with room made %v allocations, want 0", n)
	}
	if !bytes.Equal(buf, enc) {
		t.Fatal("reused buffer does not hold EncodeResult's bytes")
	}
}

// DecodeResult reads each window into one slice that the sketch adopts, so
// decoding a payload allocates about its length plus a few small objects
// per site (sample, sketch, site entry, index slot, size-class slack); a
// window decoded twice would cost as much again.
func TestDecodeResultAllocBudget(t *testing.T) {
	r := realRun()
	enc := EncodeResult(r)
	const perSite = 512
	got := allocBytes(50, func() {
		if _, err := DecodeResult(enc); err != nil {
			t.Fatal(err)
		}
	})
	if budget := len(enc) + perSite*len(r.Sites); got > float64(budget) {
		t.Fatalf("decoding a %d-byte payload of %d sites allocated %.0f bytes, want at most %d",
			len(enc), len(r.Sites), got, budget)
	}
}
