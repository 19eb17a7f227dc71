// Work leases: advisory claim sentinels that let many processes shard one
// grid of cache misses without re-simulating each other's cells.
//
// A lease is a tiny sentinel file next to the entry it guards, published
// atomically (a complete temp file hard-linked into place, which fails if
// the sentinel exists), naming its owner and an expiry deadline.
// Claimants that find a live lease back off; claimants that find an
// expired one steal it by atomically renaming a replacement over it —
// TTL-based reclamation, so a SIGKILLed worker's in-flight cell becomes
// claimable again after one TTL instead of wedging the sweep.
//
// Leases are an optimization, never a correctness mechanism. Every cell is
// a pure function of its key and entry publication is atomic, so two
// workers that both execute one cell (a steal racing a straggler, or two
// stealers racing each other) write byte-identical entries and the sweep's
// merged output is unchanged. The invariants that matter are only:
//
//   - at most one claimant acquires a *fresh* (non-steal) claim;
//   - an expired lease is eventually claimable;
//   - a completed cell (entry present) is never worth claiming.
//
// The property suite in lease_test.go pins exactly those three.
package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// LeaseInfo describes the holder of a claim sentinel.
type LeaseInfo struct {
	// Owner is the claimant's self-chosen identity (worker URL, pid tag).
	Owner string
	// Expires is when the lease becomes stealable.
	Expires time.Time
}

// Expired reports whether the lease is past its deadline at now.
func (l LeaseInfo) Expired(now time.Time) bool { return now.After(l.Expires) }

// leasePath returns the sentinel file guarding a key's entry. It lives in
// the entry's fan-out directory under the same hash, so lease and entry
// travel together and a cache wipe clears both.
func (s *Store) leasePath(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".lease")
}

// CheckOwner rejects an owner the sentinel body cannot carry. A control
// character (a newline above all) would split the owner line, so the
// lease would read back under a different owner, and its holder could
// neither refresh nor release it.
func CheckOwner(owner string) error {
	if i := strings.IndexFunc(owner, unicode.IsControl); i >= 0 {
		return fmt.Errorf("lease owner %q has a control character at byte %d", owner, i)
	}
	return nil
}

// encodeLease renders the sentinel body: labeled lines, like entry keys.
// The owner must pass CheckOwner.
func encodeLease(l LeaseInfo) []byte {
	return []byte(fmt.Sprintf("owner=%s\nexpires=%d\n", l.Owner, l.Expires.UnixNano()))
}

// parseLease decodes a sentinel body. A malformed sentinel (torn write,
// manual edit) decodes as an already-expired lease owned by nobody, so it
// is stolen rather than wedging the cell forever.
func parseLease(raw []byte) LeaseInfo {
	var l LeaseInfo
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "owner="); ok {
			l.Owner = v
		}
		if v, ok := strings.CutPrefix(line, "expires="); ok {
			if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
				l.Expires = time.Unix(0, ns)
			}
		}
	}
	return l
}

// TryClaim attempts to acquire the work lease for k with the given TTL.
// It returns (true, lease) on acquisition — fresh when no sentinel
// existed, stolen when an expired one did — and (false, holder) when a
// live lease is held by someone else. Re-claiming a key whose lease this
// owner already holds refreshes the deadline and succeeds.
//
// Acquisition is advisory (see the package comment): a steal that races a
// straggler or another stealer can yield two simultaneous holders, which
// costs one duplicated simulation and zero correctness.
func (s *Store) TryClaim(k Key, owner string, ttl time.Duration) (bool, LeaseInfo) {
	return s.tryClaimAt(k, owner, ttl, time.Now())
}

// tryClaimAt is TryClaim at an explicit clock, for the expiry tests.
func (s *Store) tryClaimAt(k Key, owner string, ttl time.Duration, now time.Time) (bool, LeaseInfo) {
	path := s.leasePath(k.Hash())
	mine := LeaseInfo{Owner: owner, Expires: now.Add(ttl)}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		// An unwritable cache degrades leases to "everyone claims": workers
		// recompute duplicates, results stay correct.
		s.Logf("cannot create lease directory: %v (claiming without a lease)", err)
		return true, mine
	}
	for attempt := 0; ; attempt++ {
		err := s.linkLease(path, mine)
		if err == nil {
			return true, mine
		}
		if !os.IsExist(err) {
			s.Logf("cannot create lease %s: %v (claiming without a lease)", path, err)
			return true, mine
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) && attempt == 0 {
				continue // released between our create and read; retry once
			}
			s.Logf("unreadable lease %s: %v (claiming without a lease)", path, rerr)
			return true, mine
		}
		held := parseLease(raw)
		if held.Owner != owner && !held.Expired(now) {
			return false, held
		}
		// Refresh our own lease, or steal an expired one: write-and-rename
		// is atomic, so concurrent stealers leave one well-formed winner
		// (and the losers merely duplicate work, which determinism makes
		// harmless). A failed replacement still claims — advisory either way.
		s.writeLease(path, mine)
		return true, mine
	}
}

// linkLease publishes a sentinel at path only if none exists. The body is
// written to a temp file first and then hard-linked into place, so the
// sentinel is never visible empty: a create-then-write would let a
// concurrent claimant read the empty file, parse it as expired, and steal
// a fresh lease. The link fails with an IsExist error when path exists.
func (s *Store) linkLease(path string, l LeaseInfo) error {
	tmp, err := tempLease(path, l)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	return os.Link(tmp, path)
}

// writeLease atomically replaces the sentinel at path.
func (s *Store) writeLease(path string, l LeaseInfo) bool {
	tmp, err := tempLease(path, l)
	if err != nil {
		return false
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false
	}
	return true
}

// tempLease writes l's body to a fresh temp file beside path and returns
// the temp file's name.
func tempLease(path string, l LeaseInfo) (string, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-lease-*")
	if err != nil {
		return "", err
	}
	_, werr := tmp.Write(encodeLease(l))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return "", werr
	}
	return tmp.Name(), nil
}

// ReleaseClaim removes k's lease if owner still holds it. Releasing a
// lease someone else stole (or that never existed) is a no-op — the
// stealer's claim stands.
func (s *Store) ReleaseClaim(k Key, owner string) {
	path := s.leasePath(k.Hash())
	raw, err := os.ReadFile(path)
	if err != nil {
		return
	}
	if parseLease(raw).Owner == owner {
		os.Remove(path)
	}
}

// ClaimHolder reports the current lease on k, if any. It is an
// observation, not a synchronization point: the lease may change the
// instant after it returns.
func (s *Store) ClaimHolder(k Key) (LeaseInfo, bool) {
	raw, err := os.ReadFile(s.leasePath(k.Hash()))
	if err != nil {
		return LeaseInfo{}, false
	}
	return parseLease(raw), true
}
