package resultcache

import (
	"testing"
	"time"
)

// FuzzLease drives the lease-file boundary: parseLease never panics on
// arbitrary bytes, and encodeLease→parseLease round-trips every owner that
// CheckOwner (and so the daemon's CellSpec.Validate) accepts.
func FuzzLease(f *testing.F) {
	f.Add([]byte("owner=w1\nexpires=1700000000000000000\n"), "w1", int64(1700000000000000000))
	f.Add([]byte(""), "", int64(0))
	f.Add([]byte("owner=a\nowner=b\nexpires=x\n"), "a\nowner=b", int64(-1))
	f.Add([]byte("expires=-9223372036854775808"), "owner=expires=5", int64(-9223372036854775808))
	f.Fuzz(func(t *testing.T, raw []byte, owner string, ns int64) {
		parseLease(raw)
		if CheckOwner(owner) != nil {
			return
		}
		want := LeaseInfo{Owner: owner, Expires: time.Unix(0, ns)}
		got := parseLease(encodeLease(want))
		if got.Owner != want.Owner || !got.Expires.Equal(want.Expires) {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	})
}
