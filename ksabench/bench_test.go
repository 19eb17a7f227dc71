package main

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"ksa/internal/resultcache"
)

func TestP90NeedsTenOpsBeyondIt(t *testing.T) {
	ramp := func(n int) phase {
		p := phase{wallS: 1, liveMiB: []float64{1}}
		for i := 0; i < n; i++ {
			p.latMs = append(p.latMs, float64(i+1))
		}
		return p
	}
	for _, tc := range []struct {
		ops  int
		want bool
	}{{50, false}, {91, false}, {92, true}, {400, true}} {
		_, ok := endToEnd(ramp(tc.ops), []float64{1})["op_ms_p90"]
		if ok != tc.want {
			t.Errorf("%d ops: op_ms_p90 reported = %t, want %t", tc.ops, ok, tc.want)
		}
	}
	// Ties at the p90 value do not count as lying beyond it.
	flat := make([]float64, 200)
	for i := range flat {
		flat[i] = 5
	}
	if _, ok := tailQuantile(flat, 0.9); ok {
		t.Error("200 equal latencies leave no op beyond the p90, but it was reported")
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Start: start, End: end}
	}
	parent := sp(0, -1, 0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(1, 0, 10, 20), sp(2, 0, 30, 50)}, 70},
		{"overlapping", []span{sp(1, 0, 10, 30), sp(2, 0, 20, 50)}, 60},
		{"one inside another", []span{sp(1, 0, 10, 60), sp(2, 0, 20, 30)}, 50},
		{"sticking out of the parent", []span{sp(1, 0, -10, 10), sp(2, 0, 90, 120)}, 80},
		{"touching", []span{sp(1, 0, 10, 20), sp(2, 0, 20, 30)}, 80},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}

	// Nested spans: each level's self time excludes only its own children.
	spans := []span{
		{Op: 0, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100, Alloc: 100},
		{Op: 0, ID: 1, Parent: 0, Name: "a", Start: 10, End: 60, Alloc: 70},
		{Op: 0, ID: 2, Parent: 1, Name: "b", Start: 20, End: 40, Alloc: 30},
		{Op: 0, ID: 3, Parent: -1, Name: "probe", Start: 100, End: 105},
	}
	rows := rowsByName(layerRows(spans, false))
	for name, want := range map[string]struct {
		self  int64
		alloc int64
		inOp  bool
	}{"op": {50, 30, true}, "a": {30, 40, true}, "b": {20, 30, true}, "probe": {5, 0, false}} {
		r := rows[name]
		if r.selfNs != want.self || r.alloc != want.alloc || r.inOp != want.inOp || r.calls != 1 {
			t.Errorf("%s: self %d alloc %d inOp %t calls %d, want %d %d %t 1",
				name, r.selfNs, r.alloc, r.inOp, r.calls, want.self, want.alloc, want.inOp)
		}
	}
}

func TestOpSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(densityOps(7, 30), densityOps(7, 30)) {
		t.Error("density: one seed gave two op sequences")
	}
	if reflect.DeepEqual(densityOps(7, 30), densityOps(8, 30)) {
		t.Error("density: two seeds gave one op sequence")
	}
	if !reflect.DeepEqual(clusterOps(7, 48), clusterOps(7, 48)) {
		t.Error("cluster: one seed gave two op sequences")
	}
	if reflect.DeepEqual(clusterOps(7, 48), clusterOps(8, 48)) {
		t.Error("cluster: two seeds gave one op sequence")
	}
	if groupSeed(7, "sweep-warm", 3) != groupSeed(7, "sweep-warm", 3) ||
		groupSeed(7, "sweep-warm", 3) == groupSeed(8, "sweep-warm", 3) {
		t.Error("group seeds are not a function of the seed alone")
	}

	cells := func(seed uint64) []string {
		w := newSweepCold(seed, 10, t.TempDir())
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for i := 0; i < 10; i++ {
			p, c := w.cell(i)
			keys = append(keys, p.CacheKey(c).Hash())
		}
		return keys
	}
	if !reflect.DeepEqual(cells(7), cells(7)) {
		t.Error("sweep-cold: one seed gave two cell sequences")
	}
	if reflect.DeepEqual(cells(7), cells(8)) {
		t.Error("sweep-cold: two seeds gave one cell sequence")
	}
}

// fakeWorkload fails op 2 and the check of op 4 of every pass.
type fakeWorkload struct{}

func (fakeWorkload) setup() error             { return nil }
func (fakeWorkload) traceSetup(*tracer) error { return nil }
func (fakeWorkload) close() error             { return nil }

func (fakeWorkload) op(i int) (check, error) {
	if i%10 == 2 {
		return nil, errors.New("op failed")
	}
	return func() ([]byte, error) {
		if i%10 == 4 {
			return nil, errors.New("check failed")
		}
		return []byte{byte(i)}, nil
	}, nil
}

func (w fakeWorkload) tracedOp(i int, tr *tracer) (ch check, err error) {
	tr.opSpan(func() { ch, err = w.op(i) })
	return ch, err
}

func TestFailedOpsAreCountedAndTheRunGoesOn(t *testing.T) {
	p := runOps(0, 10, fakeWorkload{}.op)
	if len(p.latMs) != 10 || p.failed != 2 {
		t.Fatalf("ran %d ops with %d failed, want 10 with 2", len(p.latMs), p.failed)
	}
	if p.digests[2] != ([32]byte{}) || p.digests[4] != ([32]byte{}) || p.digests[3] == ([32]byte{}) {
		t.Error("failed ops must leave no output digest, and passing ops one")
	}

	workloads["fake"] = workloadDef{rate: 100, cycle: 10, warmup: 10, setups: 2,
		build: func(uint64, int, string) workload { return fakeWorkload{} }}
	defer delete(workloads, "fake")
	for _, traced := range []bool{false, true} {
		res, err := run(config{workload: "fake", seed: 1, seconds: 1, trace: traced, report: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		attempted, failed := 110, 22
		if traced {
			attempted, failed = 210, 42
		}
		if res.Attempted != attempted || res.Failed != failed || res.Correct {
			t.Errorf("traced=%t: attempted %d failed %d correct %t, want %d %d false",
				traced, res.Attempted, res.Failed, res.Correct, attempted, failed)
		}
	}
}

func TestOpenEmptyStoreRefusesEntries(t *testing.T) {
	dir := t.TempDir()
	if _, err := openEmptyStore(dir); err != nil {
		t.Fatalf("empty directory: %v", err)
	}
	st, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(resultcache.Key{Kind: "test", Seed: 1}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := openEmptyStore(dir); err == nil {
		t.Error("a store holding an entry was accepted as empty")
	}
}
