package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
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

func TestResultRoundTripRealRun(t *testing.T) {
	// A real harness run (small grid) must survive the codec with every
	// downstream statistic intact, and encode canonically.
	opts := fuzz.NewOptions(7)
	opts.TargetPrograms = 6
	c, _ := fuzz.Generate(opts)
	env := platform.VMs(sim.NewEngine(), platform.Machine{Cores: 8, MemGB: 4}, 2, rng.New(7))
	res := varbench.Run(env, c, varbench.Options{Iterations: 3, Warmup: 1, Seed: 7})

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
	s := stats.NewExactSample(2)
	s.AddAll([]float64{2.25, 0.5})
	r := varbench.NewResult("native", 1, 1, []varbench.SiteResult{
		{Site: varbench.Site{}, Syscall: 7, Sample: s},
	})
	enc := EncodeResult(r)
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
	f.Fuzz(func(t *testing.T, b []byte) {
		// Decoding arbitrary bytes must never panic; a successful decode
		// must re-encode without error.
		r, err := DecodeResult(b)
		if err == nil {
			EncodeResult(r)
		}
	})
}

func FuzzDecodeCluster(f *testing.F) {
	f.Add(EncodeCluster(&cluster.Result{App: "a", Env: "kvm", IterTimes: []sim.Time{1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeCluster(b)
		if err == nil {
			EncodeCluster(r)
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

// TestDecodeRejectsBadSketch hand-assembles structurally damaged sketch
// sites: the decoder must reject an untrimmed window, an out-of-range
// base, and an unknown backend tag with an error, never a panic.
func TestDecodeRejectsBadSketch(t *testing.T) {
	build := func(mutate func(w *writer)) []byte {
		w := writer{}
		w.bytes([]byte(resultMagic))
		w.u8(ResultVersion)
		w.str("native")
		w.u32(1) // cores
		w.u32(1) // iterations
		w.u32(1) // sites
		w.u32(0) // program
		w.u32(0) // call
		w.u32(7) // syscall
		mutate(&w)
		return w.buf
	}
	sketchSite := func(base uint32, counts ...uint64) func(w *writer) {
		return func(w *writer) {
			w.u8(1)  // sketch tag
			w.u64(0) // zero bucket
			w.u64(math.Float64bits(1))
			w.u64(math.Float64bits(2))
			w.u32(base)
			w.u32(uint32(len(counts)))
			for _, c := range counts {
				w.u64(c)
			}
		}
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"untrimmed-window", build(sketchSite(100, 0, 5))},
		{"base-out-of-range", build(sketchSite(1<<30, 1))},
		{"unknown-tag", build(func(w *writer) { w.u8(9) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResult(tc.b); err == nil {
				t.Fatal("damaged sketch site decoded without error")
			}
		})
	}
}
