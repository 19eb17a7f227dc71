// Package resultcache is a content-addressed, disk-backed store for
// deterministic experiment results. Every job in this repository is a pure
// function of its key: the environment specification, the harness options,
// the corpus, the fault plan, and the derived seed fully determine a
// bit-identical result (the runner's determinism contract). That purity
// makes results memoizable — pay the simulation cost once per
// configuration, reuse forever — which turns every sweep into a resumable,
// cross-invocation-incremental computation: an interrupted grid rerun
// recomputes only the missing cells, and changing one key component (say,
// the fault plan) reuses every cell it does not invalidate (say, the
// baselines).
//
// The store maps a Key — a canonical, labeled rendering of all result
// inputs plus a code-version salt — to an opaque payload (the versioned
// binary encoding produced by resultcache/codec). Entries are files named
// by the SHA-256 of the canonical key, written atomically (temp file +
// rename) so a SIGKILL mid-write can never publish a torn entry. Each
// entry carries a header with a format version, the canonical key, and a
// SHA-256 payload checksum; a truncated, bit-flipped, version-bumped, or
// otherwise unreadable entry is reported as a warning and treated as a
// miss — corruption is recomputed through, never crashed on and never
// silently served.
//
// The store never interprets payloads. Counters (hits, misses, bytes in
// and out) are process-lifetime and surfaced by the orchestrators on their
// fan-out metrics and per-experiment CLI output.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// CodeVersion is the code-version salt mixed into every Key. Bump it
// whenever a change alters any simulation bit (kernel model, harness
// schedule, rng derivation, corpus generation): stale entries then miss by
// construction instead of serving results the current code would not
// produce. Codec format changes are versioned separately inside payloads.
const CodeVersion = "ksa-sim-4"

// Key identifies one cached result: the complete set of inputs that
// determine the result's bits, each in its canonical string form. Two runs
// with equal Keys are bit-identical by the determinism contract; any
// differing component must change the Key.
type Key struct {
	// Salt is the code-version salt (CodeVersion).
	Salt string
	// Kind names the payload type ("varbench", "cluster"), so decoders
	// never see a payload of the wrong shape.
	Kind string
	// Env is the environment identity: the EnvSpec string plus the machine
	// it partitions, e.g. "kvm-8@64c32g", or a cluster config fingerprint.
	Env string
	// Opts is the harness options fingerprint (iterations, warmup, barrier
	// parameters — everything result-shaping that is not keyed elsewhere).
	Opts string
	// FaultSig is the interference plan's signature, or "" for a clean run.
	FaultSig string
	// Corpus is the workload corpus digest (corpus.Digest).
	Corpus string
	// Seed is the run's private seed (derived or root — whichever value the
	// run actually consumes).
	Seed uint64
}

// Canonical renders the key as labeled lines, one component each. This is
// the exact byte string that is hashed into the entry address and stored
// in the entry header for collision detection.
func (k Key) Canonical() string {
	return fmt.Sprintf("salt=%s\nkind=%s\nenv=%s\nopts=%s\nfault=%s\ncorpus=%s\nseed=%#016x\n",
		k.Salt, k.Kind, k.Env, k.Opts, k.FaultSig, k.Corpus, k.Seed)
}

// Hash returns the entry address: the hex SHA-256 of the canonical key.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Stats is a snapshot of a store's process-lifetime counters.
type Stats struct {
	// Hits is the number of Gets served from disk (after validation).
	Hits int64
	// Misses counts Gets that found no valid entry — absent, corrupt, or
	// reclassified by Corrupt after a failed decode.
	Misses int64
	// Puts is the number of entries written.
	Puts int64
	// PutErrors counts failed writes (the run continues uncached).
	PutErrors int64
	// BytesRead is the total payload bytes served by hits.
	BytesRead int64
	// BytesWritten is the total payload bytes stored by puts.
	BytesWritten int64
}

// Lookups is Hits + Misses.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate is Hits / Lookups, or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups())
}

// Sub returns the counter deltas since an earlier snapshot — the
// per-experiment accounting the CLIs print.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses,
		Puts: s.Puts - prev.Puts, PutErrors: s.PutErrors - prev.PutErrors,
		BytesRead: s.BytesRead - prev.BytesRead, BytesWritten: s.BytesWritten - prev.BytesWritten,
	}
}

// String summarizes the snapshot for CLI output. The "(100.0% hits)" form
// is load-bearing: CI greps for it to assert a fully warmed cache.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%.1f%% hits), %s read, %s written",
		s.Hits, s.Misses, 100*s.HitRate(), FormatBytes(s.BytesRead), FormatBytes(s.BytesWritten))
}

// FormatBytes renders a byte count with a binary-ish human unit (B/KB/MB).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Entry file layout (little-endian):
//
//	magic   [4]byte "KSAR"
//	version u8      entryVersion
//	keyLen  u32     canonical key length
//	payLen  u64     payload length
//	sum     [32]byte SHA-256 of payload
//	key     keyLen bytes
//	payload payLen bytes
const (
	entryMagic   = "KSAR"
	entryVersion = 1
	headerLen    = 4 + 1 + 4 + 8 + 32
)

// Store is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use by the sweep workers.
type Store struct {
	dir string
	log atomic.Pointer[io.Writer]

	hits, misses, puts, putErrors atomic.Int64
	bytesRead, bytesWritten       atomic.Int64
}

// StaleTempAge is how old an orphaned temp file must be before Open
// reclaims it. Writers hold a temp file only for the duration of one
// entry's writes + rename (milliseconds), so anything this old is debris
// from a writer that died mid-Put (SIGKILL between CreateTemp and Rename).
// The margin exists only to never race a live writer in another process.
const StaleTempAge = time.Hour

// Open creates (if needed) and returns the store rooted at dir, sweeping
// any stale temp files an interrupted writer left behind. An unreadable
// root is an error, not a silent empty cache: a store that cannot list
// its own directory would report every entry as a miss and re-simulate
// the world, which is exactly the failure a caller wants surfaced at
// open time. Warnings about corrupt or unreadable entries found later go
// to os.Stderr until SetLog.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: unreadable cache directory: %w", err)
	}
	s := &Store{dir: dir}
	var w io.Writer = os.Stderr
	s.log.Store(&w)
	if n := s.sweepStaleTemp(ents, time.Now()); n > 0 {
		s.Logf("removed %d stale temp/lease file(s) left by an interrupted writer", n)
	}
	return s, nil
}

// sweepStaleTemp removes debris older than StaleTempAge relative to now
// and returns how many files were removed: tmp-* files in the store root
// and in the fan-out subdirectories (orphaned by writers that died
// between CreateTemp and Rename), plus long-expired .lease sentinels
// (orphaned by claimants that died mid-cell after their lease already
// served its TTL purpose). Entries are only ever published by rename, so
// removing debris can never lose a published result. Unreadable fan-out
// subdirectories are warned about, not skipped silently — they are the
// same serve-nothing failure mode Open rejects for the root.
func (s *Store) sweepStaleTemp(ents []os.DirEntry, now time.Time) int {
	removed := 0
	sweep := func(dir string, ents []os.DirEntry) {
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			stale := strings.HasPrefix(e.Name(), "tmp-") || strings.HasSuffix(e.Name(), ".lease")
			if !stale {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			if now.Sub(info.ModTime()) < StaleTempAge {
				continue // possibly a live writer or claimant in another process
			}
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				removed++
			}
		}
	}
	sweep(s.dir, ents)
	for _, e := range ents {
		if !e.IsDir() || len(e.Name()) != 2 {
			continue
		}
		sub := filepath.Join(s.dir, e.Name())
		subEnts, err := os.ReadDir(sub)
		if err != nil {
			s.Logf("unreadable entry directory %s: %v (its entries will all miss)", sub, err)
			continue
		}
		sweep(sub, subEnts)
	}
	return removed
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetLog redirects corruption and write-failure warnings (tests capture
// them; nil silences them).
func (s *Store) SetLog(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	s.log.Store(&w)
}

// Logf writes one warning line to the store's log sink.
func (s *Store) Logf(format string, args ...any) {
	fmt.Fprintf(*s.log.Load(), "resultcache: "+format+"\n", args...)
}

// path returns the entry file for a key hash, fanned out over 256
// two-hex-digit subdirectories.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".ksar")
}

// Get returns the payload stored under k. A missing entry is a plain miss;
// an invalid one (bad magic, bumped version, short file, key collision,
// checksum mismatch) is a warned miss — the caller recomputes and the next
// Put overwrites the bad entry.
func (s *Store) Get(k Key) ([]byte, bool) {
	canon := k.Canonical()
	path := s.path(k.Hash())
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.Logf("unreadable entry %s: %v (treating as a miss)", path, err)
		}
		s.misses.Add(1)
		return nil, false
	}
	payload, err := parseEntry(raw, canon)
	if err != nil {
		s.Logf("corrupt entry %s: %v (treating as a miss; it will be recomputed)", path, err)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(int64(len(payload)))
	return payload, true
}

// parseEntry validates one entry file against the canonical key and
// returns its payload.
func parseEntry(raw []byte, canon string) ([]byte, error) {
	if len(raw) < headerLen {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(raw))
	}
	if string(raw[:4]) != entryMagic {
		return nil, fmt.Errorf("bad magic %q", raw[:4])
	}
	if raw[4] != entryVersion {
		return nil, fmt.Errorf("entry format version %d (want %d)", raw[4], entryVersion)
	}
	keyLen := binary.LittleEndian.Uint32(raw[5:9])
	payLen := binary.LittleEndian.Uint64(raw[9:17])
	var sum [32]byte
	copy(sum[:], raw[17:49])
	if uint64(len(raw)) != headerLen+uint64(keyLen)+payLen {
		return nil, fmt.Errorf("truncated body (%d bytes, want %d)",
			len(raw), headerLen+uint64(keyLen)+payLen)
	}
	key := raw[headerLen : headerLen+int(keyLen)]
	payload := raw[headerLen+int(keyLen):]
	if !bytes.Equal(key, []byte(canon)) {
		return nil, fmt.Errorf("key collision: entry holds a different canonical key")
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("payload checksum mismatch")
	}
	return payload, nil
}

// Contains reports whether an entry exists under k, without reading it
// and without touching the hit/miss counters. It is an existence probe
// for fast-path planning (can this whole job be answered from cache?),
// not a validity check: a corrupt entry still reports true here and is
// recomputed by the Get path that actually serves it.
func (s *Store) Contains(k Key) bool {
	info, err := os.Stat(s.path(k.Hash()))
	return err == nil && info.Mode().IsRegular()
}

// Corrupt reclassifies a hit as a miss after a higher layer failed to
// decode its payload (e.g. a codec version bump inside a checksum-valid
// entry). Counters stay truthful and the failure is warned, so a poisoned
// entry can never be reported as served.
func (s *Store) Corrupt(k Key, err error) {
	s.hits.Add(-1)
	s.misses.Add(1)
	s.Logf("undecodable entry for key %s: %v (recomputing)", k.Hash()[:12], err)
}

// Put stores payload under k, atomically: the entry appears complete or
// not at all, even under SIGKILL. Write failures are warned and counted
// but do not fail the run — a broken cache degrades to recomputation.
func (s *Store) Put(k Key, payload []byte) error {
	err := s.put(k, payload)
	if err != nil {
		s.putErrors.Add(1)
		s.Logf("cannot store entry: %v (continuing uncached)", err)
		return err
	}
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(payload)))
	return nil
}

func (s *Store) put(k Key, payload []byte) error {
	canon := k.Canonical()
	path := s.path(k.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// The header and key go in one small buffer; the payload is written
	// from the caller's slice rather than copied in after them.
	head := make([]byte, 0, headerLen+len(canon))
	head = append(head, entryMagic...)
	head = append(head, entryVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(canon)))
	head = binary.LittleEndian.AppendUint64(head, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	head = append(head, sum[:]...)
	head = append(head, canon...)

	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(head)
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		Puts: s.puts.Load(), PutErrors: s.putErrors.Load(),
		BytesRead: s.bytesRead.Load(), BytesWritten: s.bytesWritten.Load(),
	}
}
