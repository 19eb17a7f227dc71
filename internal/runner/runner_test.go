package runner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// poolRun is one fan-out on a pool of workers goroutines started for it —
// the shape every one-shot caller uses.
func poolRun(workers, n int, fn func(job int)) Metrics {
	p := NewPool(workers)
	defer p.Close()
	m, _ := p.Do(context.Background(), 0, n, fn)
	return m
}

func TestRunExecutesEveryJobOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 8, 100} {
		counts := make([]int32, 37)
		m := poolRun(w, len(counts), func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", w, i, c)
			}
		}
		if m.Jobs != len(counts) || m.Completed != len(counts) {
			t.Fatalf("workers=%d: metrics report %d jobs, %d completed", w, m.Jobs, m.Completed)
		}
		if m.Workers < 1 || m.Workers > len(counts) {
			t.Fatalf("workers=%d resolved to %d", w, m.Workers)
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	m := poolRun(8, 0, func(int) { t.Error("job ran") })
	if m.Jobs != 0 || m.Wall != 0 {
		t.Fatalf("unexpected metrics for empty fan-out: %+v", m)
	}
	if m.Speedup() != 1 {
		t.Fatalf("empty fan-out speedup %v, want 1", m.Speedup())
	}
}

func TestMapOrdersResultsByJobNotCompletion(t *testing.T) {
	// Early jobs sleep longest, so completion order is roughly reversed;
	// results must still land at their job index.
	n := 16
	p := NewPool(8)
	defer p.Close()
	out, _, err := MapOn(context.Background(), p, 0, n, func(i int) int {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return i * i
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := poolRun(2, 4, func(i int) { time.Sleep(5 * time.Millisecond) })
	if len(m.JobWall) != 4 || len(m.QueueWait) != 4 {
		t.Fatalf("per-job metrics missing: %+v", m)
	}
	for i, d := range m.JobWall {
		if d < 4*time.Millisecond {
			t.Fatalf("job %d wall %v below its sleep", i, d)
		}
	}
	if m.Busy() < 18*time.Millisecond {
		t.Fatalf("busy %v below the summed sleeps", m.Busy())
	}
	if m.Wall <= 0 || m.Wall > m.Busy()+time.Second {
		t.Fatalf("implausible wall %v", m.Wall)
	}
	if m.Speedup() <= 0 {
		t.Fatalf("speedup %v", m.Speedup())
	}
	if m.MaxQueueWait() < 0 {
		t.Fatalf("negative queue wait")
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDeriveSeedDeterministicAndNonZero(t *testing.T) {
	keys := []string{"", "native/trial=0", "kvm-8/trial=7", "docker-64/trial=127"}
	for _, root := range []uint64{0, 1, 42, ^uint64(0)} {
		for _, k := range keys {
			a, b := DeriveSeed(root, k), DeriveSeed(root, k)
			if a != b {
				t.Fatalf("DeriveSeed(%d, %q) not deterministic: %x vs %x", root, k, a, b)
			}
			if a == 0 {
				t.Fatalf("DeriveSeed(%d, %q) = 0 (reserved sentinel)", root, k)
			}
		}
	}
}

// Golden vectors pin the derivation so a refactor (or a platform with
// different int width) cannot silently re-seed every sweep in the repo.
func TestDeriveSeedGolden(t *testing.T) {
	cases := []struct {
		root uint64
		key  string
		want uint64
	}{
		{0, "", 0x5ba314b8cfda3b6b},
		{42, "native/trial=0", 0xb21ad6cc52c3fb13},
		{42, "kvm-8/trial=2", 0x7121b652c1ff29d2},
		{^uint64(0), "docker-64/trial=15", 0xd5b409e1f4e238f8},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.root, c.key); got != c.want {
			t.Errorf("DeriveSeed(%#x, %q) = %#x, want %#x", c.root, c.key, got, c.want)
		}
	}
}

// sweep runs jobs on a pool of workers goroutines started for the call.
func sweep[T any](root uint64, workers int, jobs []Job[T]) []T {
	p := NewPool(workers)
	defer p.Close()
	out, _, _ := SweepOn(context.Background(), p, 0, root, jobs)
	return out
}

func TestSweepOrderAndSeedInvariance(t *testing.T) {
	type res struct {
		key  string
		seed uint64
	}
	mkJobs := func(keys []string) []Job[res] {
		jobs := make([]Job[res], len(keys))
		for i, k := range keys {
			jobs[i] = Job[res]{Key: k, Run: func(seed uint64) res { return res{k, seed} }}
		}
		return jobs
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	base := sweep(7, 1, mkJobs(keys))
	byKey := map[string]uint64{}
	for i, r := range base {
		if r.key != keys[i] {
			t.Fatalf("result %d is %q, want %q (job order violated)", i, r.key, keys[i])
		}
		byKey[r.key] = r.seed
	}
	// Reversed submission order, more workers: every key keeps its seed.
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	shuffled := sweep(7, 8, mkJobs(rev))
	for i, r := range shuffled {
		if r.key != rev[i] {
			t.Fatalf("shuffled result %d is %q, want %q", i, r.key, rev[i])
		}
		if r.seed != byKey[r.key] {
			t.Fatalf("key %q seed changed with submission order: %x vs %x", r.key, r.seed, byKey[r.key])
		}
	}
	// A subset sweep: dropping jobs cannot change surviving jobs' seeds.
	for _, r := range sweep(7, 2, mkJobs(keys[2:5])) {
		if r.seed != byKey[r.key] {
			t.Fatalf("key %q seed changed when other jobs were dropped", r.key)
		}
	}
}

func TestSweepDuplicateKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate key did not panic")
		}
	}()
	sweep(1, 1, []Job[int]{
		{Key: "same", Run: func(uint64) int { return 0 }},
		{Key: "same", Run: func(uint64) int { return 0 }},
	})
}

func TestWorkersDefault(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default workers below 1")
	}
}
