// Package codec defines the versioned binary encodings the result cache
// stores: varbench.Result (per-call-site latency samples) and
// cluster.Result (BSP iteration times). Nothing else in the repository
// serializes results, so this package is the single place their on-disk
// shape lives.
//
// Encodings are canonical: exact samples are written in sorted order (the
// order every downstream statistic is computed from), sketch samples as
// their trimmed count window (the sketch's canonical state, identical for
// any insertion or merge order), integers are fixed-width little-endian,
// and floats are IEEE-754 bit patterns. Decoders accept only canonical
// payloads, so Encode(Decode(b)) reproduces every b that decodes exactly,
// which is what lets -cache-verify assert byte-equality between a stored
// entry and a recomputation — a standing bit-identity audit of published
// numbers.
//
// Each encoding starts with a magic tag and a format version byte.
// Decoders reject unknown versions, any structural damage and any
// non-canonical payload (exact values out of order, an empty sketch with
// finite extremes, a syscall id or flag out of its range) with an
// error, never a panic: the cache layer treats a decode failure as a miss
// and recomputes.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ksa/internal/cluster"
	"ksa/internal/sim"
	"ksa/internal/stats"
	"ksa/internal/syscalls"
	"ksa/internal/varbench"
)

// Format versions. Bump on any layout change; old entries then miss.
const (
	// ResultVersion versions the varbench.Result encoding. v2 added the
	// per-site backend tag (exact values vs sketch window).
	ResultVersion = 2
	// ClusterVersion versions the cluster.Result encoding.
	ClusterVersion = 1
)

const (
	resultMagic  = "KSVB"
	clusterMagic = "KSCL"
)

// Per-site sample backend tags in the v2 result encoding.
const (
	sampleTagExact  = 0 // sorted retained values
	sampleTagSketch = 1 // canonical sketch state
)

// EncodeResult renders a varbench.Result in the versioned binary form.
// Exact sample values are written sorted (their canonical order), sketch
// samples as their trimmed window, so two results that agree on every
// statistic encode identically regardless of insertion or merge order.
// The payload is allocated once, at its exact length. Results carrying
// tracers cannot round-trip; callers must not cache traced runs.
func EncodeResult(r *varbench.Result) []byte {
	return appendResult(make([]byte, 0, ResultLen(r)), r)
}

// AppendResult appends r's encoding (EncodeResult's bytes) to dst and
// returns the extended slice, growing dst at most once. A caller that
// encodes many results into one reused buffer (dst[:0]) of at least the
// largest ResultLen allocates nothing.
func AppendResult(dst []byte, r *varbench.Result) []byte {
	return appendResult(slices.Grow(dst, ResultLen(r)), r)
}

// ResultLen returns the length of r's encoding: what EncodeResult
// allocates.
func ResultLen(r *varbench.Result) int {
	n := len(resultMagic) + 1 + 4 + len(r.Env) + 3*4
	for _, sr := range r.Sites {
		n += 3*4 + 1
		if sk := sr.Sample.Sketch(); sk != nil {
			_, counts, _, _, _ := sk.Parts()
			n += 3*8 + 2*4 + 8*len(counts)
			continue
		}
		n += 4 + 8*sr.Sample.Len()
	}
	return n
}

// appendResult appends r's encoding to dst, which the callers have sized.
func appendResult(dst []byte, r *varbench.Result) []byte {
	w := writer{buf: dst}
	w.bytes([]byte(resultMagic))
	w.u8(ResultVersion)
	w.str(r.Env)
	w.u32(uint32(r.Cores))
	w.u32(uint32(r.Iterations))
	w.u32(uint32(len(r.Sites)))
	for _, sr := range r.Sites {
		w.u32(uint32(sr.Site.Program))
		w.u32(uint32(sr.Site.Call))
		w.u32(uint32(sr.Syscall))
		if sk := sr.Sample.Sketch(); sk != nil {
			w.u8(sampleTagSketch)
			base, counts, zero, min, max := sk.Parts()
			w.u64(zero)
			w.u64(math.Float64bits(min))
			w.u64(math.Float64bits(max))
			w.u32(uint32(base))
			w.u32(uint32(len(counts)))
			for _, c := range counts {
				w.u64(c)
			}
			continue
		}
		w.u8(sampleTagExact)
		vals := sr.Sample.Values()
		w.u32(uint32(len(vals)))
		for _, v := range vals {
			w.u64(math.Float64bits(v))
		}
	}
	return w.buf
}

// DecodeResult parses the versioned binary form back into a Result with a
// rebuilt site index. Any structural damage, and any payload that would not
// re-encode to itself, yields an error.
func DecodeResult(b []byte) (*varbench.Result, error) {
	r := reader{buf: b}
	if string(r.take(4)) != resultMagic {
		return nil, fmt.Errorf("codec: not a varbench result payload")
	}
	if v := r.u8(); v != ResultVersion {
		return nil, fmt.Errorf("codec: result format version %d (want %d)", v, ResultVersion)
	}
	env := r.str()
	cores := int(r.u32())
	iters := int(r.u32())
	nsites := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// 17 bytes is the minimum per-site footprint; reject length lies before
	// allocating.
	if nsites < 0 || nsites > (len(b)/17)+1 {
		return nil, fmt.Errorf("codec: implausible site count %d", nsites)
	}
	sites := make([]varbench.SiteResult, 0, nsites)
	for i := 0; i < nsites; i++ {
		prog := int(r.u32())
		call := int(r.u32())
		sys := r.u32()
		tag := r.u8()
		if r.err != nil {
			return nil, r.err
		}
		if sys > math.MaxUint16 {
			return nil, fmt.Errorf("codec: site %d: syscall id %d out of range", i, sys)
		}
		var smp *stats.Sample
		switch tag {
		case sampleTagExact:
			raw := r.words()
			if r.err != nil {
				return nil, r.err
			}
			// Values() returns values added in order as they are and
			// sorts any other order, so only an ordered run re-encodes to
			// itself.
			smp = stats.NewExactSample(len(raw) / 8)
			prev := math.Inf(-1)
			for j := 0; j < len(raw); j += 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
				if v < prev {
					return nil, fmt.Errorf("codec: site %d: exact values out of order", i)
				}
				smp.Add(v)
				prev = v
			}
		case sampleTagSketch:
			zero := r.u64()
			min := math.Float64frombits(r.u64())
			max := math.Float64frombits(r.u64())
			base := int(int32(r.u32()))
			raw := r.words()
			if r.err != nil {
				return nil, r.err
			}
			counts := make([]uint64, len(raw)/8)
			for j := range counts {
				counts[j] = binary.LittleEndian.Uint64(raw[8*j:])
			}
			sk, err := stats.SketchFromParts(base, counts, zero, min, max)
			if err != nil {
				return nil, fmt.Errorf("codec: site %d: %v", i, err)
			}
			smp = stats.SampleFromSketch(sk)
		default:
			return nil, fmt.Errorf("codec: site %d: unknown sample tag %d", i, tag)
		}
		sites = append(sites, varbench.SiteResult{
			Site:    varbench.Site{Program: prog, Call: call},
			Syscall: syscalls.ID(sys),
			Sample:  smp,
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after result", r.remaining())
	}
	return varbench.NewResult(env, cores, iters, sites), nil
}

// EncodeCluster renders a cluster.Result in the versioned binary form.
func EncodeCluster(r *cluster.Result) []byte {
	n := len(clusterMagic) + 1 + 4 + len(r.App) + 4 + len(r.Env) + 1 + 2*8 + 4 + 8*len(r.IterTimes)
	w := writer{buf: make([]byte, 0, n)}
	w.bytes([]byte(clusterMagic))
	w.u8(ClusterVersion)
	w.str(r.App)
	w.str(r.Env)
	if r.Contended {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(uint64(r.Runtime))
	w.u64(uint64(r.MeanNodeTime))
	w.u32(uint32(len(r.IterTimes)))
	for _, t := range r.IterTimes {
		w.u64(uint64(t))
	}
	return w.buf
}

// DecodeCluster parses the versioned binary form back into a
// cluster.Result.
func DecodeCluster(b []byte) (*cluster.Result, error) {
	r := reader{buf: b}
	if string(r.take(4)) != clusterMagic {
		return nil, fmt.Errorf("codec: not a cluster result payload")
	}
	if v := r.u8(); v != ClusterVersion {
		return nil, fmt.Errorf("codec: cluster format version %d (want %d)", v, ClusterVersion)
	}
	out := &cluster.Result{App: r.str(), Env: r.str()}
	flag := r.u8()
	if flag > 1 {
		return nil, fmt.Errorf("codec: contended flag %d (want 0 or 1)", flag)
	}
	out.Contended = flag == 1
	out.Runtime = sim.Time(r.u64())
	out.MeanNodeTime = sim.Time(r.u64())
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n < 0 || n > r.remaining()/8 {
		return nil, fmt.Errorf("codec: implausible iteration count %d", n)
	}
	out.IterTimes = make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		out.IterTimes = append(out.IterTimes, sim.Time(r.u64()))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after cluster result", r.remaining())
	}
	return out, nil
}

// writer appends fixed-width little-endian primitives.
type writer struct{ buf []byte }

func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes the same primitives, latching the first short read as an
// error (subsequent reads return zero values).
type reader struct {
	buf []byte
	err error
}

func (r *reader) remaining() int { return len(r.buf) }

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("codec: truncated payload")
		}
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// words reads a u32 count and then that many 8-byte words, returning
// them as one slice of the payload: one bounds check for the whole run.
func (r *reader) words() []byte {
	n := int(r.u32())
	if r.err == nil && n > r.remaining()/8 {
		r.err = fmt.Errorf("codec: implausible sample length %d", n)
	}
	return r.take(8 * n)
}

func (r *reader) str() string {
	n := int(r.u32())
	if n < 0 || n > r.remaining() {
		if r.err == nil {
			r.err = fmt.Errorf("codec: implausible string length %d", n)
		}
		return ""
	}
	return string(r.take(n))
}
