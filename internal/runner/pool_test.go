package runner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolCancelStopsClaimingAndDrains: with two workers, a cancel issued
// from inside the first cell stops further claims, and the cells that ran
// are exactly the ones Completed reports.
func TestPoolCancelStopsClaimingAndDrains(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	started := make(chan struct{}, 1)
	m, err := p.Do(ctx, 0, 100, func(i int) {
		ran.Add(1)
		select {
		case started <- struct{}{}:
			// First cell: cancel everything while we are in flight.
			cancel()
		default:
		}
		time.Sleep(time.Millisecond)
	})
	if err == nil {
		t.Fatal("cancelled Do returned nil error")
	}
	if got := int(ran.Load()); got == 100 {
		t.Fatal("cancellation did not stop the fan-out")
	} else if got != m.Completed {
		t.Fatalf("ran %d cells but Completed=%d", got, m.Completed)
	}
}

// TestPoolCancelBeforeStart: a one-worker pool handed an already
// cancelled context runs nothing.
func TestPoolCancelBeforeStart(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := p.Do(ctx, 0, 10, func(int) { t.Error("cell ran after cancel") })
	if err == nil || m.Completed != 0 {
		t.Fatalf("pre-cancelled run: err=%v completed=%d", err, m.Completed)
	}
}

func TestPoolRunsEveryCellOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	counts := make([]int32, 37)
	m, err := p.Do(context.Background(), 0, len(counts), func(i int) {
		atomic.AddInt32(&counts[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
	if m.Completed != len(counts) {
		t.Fatalf("Completed=%d want %d", m.Completed, len(counts))
	}
	if s := p.Stats(); s.CellsRun != int64(len(counts)) || s.QueueDepth != 0 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

func TestPoolSharedAcrossConcurrentFanouts(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int32
	for f := 0; f < 8; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, err := MapOn(context.Background(), p, 0, 25, func(i int) int {
				total.Add(1)
				return i * i
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range out {
				if v != i*i {
					t.Errorf("result %d = %d", i, v)
				}
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*25 {
		t.Fatalf("ran %d cells, want %d", total.Load(), 8*25)
	}
}

// TestPoolPriorityOrdersQueuedCells blocks the pool's single worker, then
// enqueues a low-priority and a high-priority fan-out: the high-priority
// cells must all run before any low-priority one.
func TestPoolPriorityOrdersQueuedCells(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gate := make(chan struct{})
	blocker := make(chan struct{})
	go p.Do(context.Background(), 0, 1, func(int) {
		close(gate)
		<-blocker
	})
	<-gate // the single worker is now occupied; everything below queues

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	run := func(name string, pri int) {
		defer wg.Done()
		p.Do(context.Background(), pri, 3, func(i int) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		})
	}
	wg.Add(2)
	go run("low", 1)
	// Give the low-priority cells time to queue first.
	time.Sleep(20 * time.Millisecond)
	go run("high", 10)
	time.Sleep(20 * time.Millisecond)
	close(blocker)
	wg.Wait()

	if len(order) != 6 {
		t.Fatalf("ran %d cells, want 6", len(order))
	}
	for i, name := range order {
		want := "high"
		if i >= 3 {
			want = "low"
		}
		if name != want {
			t.Fatalf("cell %d was %q, order %v", i, name, order)
		}
	}
}

// TestPoolCancelDropsQueuedDrainsInflight is the daemon's cancellation
// model in miniature: with a one-worker pool, cancelling a fan-out whose
// first cell is in flight must return within that one cell's granule, run
// nothing further, and report the completed prefix.
func TestPoolCancelDropsQueuedDrainsInflight(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	inFirst := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int32
	done := make(chan struct{})
	var m Metrics
	var err error
	go func() {
		defer close(done)
		m, err = p.Do(ctx, 0, 50, func(i int) {
			ran.Add(1)
			if i == 0 {
				close(inFirst)
				<-release
			}
		})
	}()
	<-inFirst
	cancel()
	// The in-flight cell drains only when released; Do must still be
	// blocked on it (graceful drain, not abandonment).
	select {
	case <-done:
		t.Fatal("Do returned while a cell was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after the in-flight cell drained")
	}
	if err == nil {
		t.Fatal("cancelled Do returned nil error")
	}
	if got := int(ran.Load()); got != 1 || m.Completed != 1 {
		t.Fatalf("ran %d cells (Completed=%d), want exactly the in-flight one", got, m.Completed)
	}
	if s := p.Stats(); s.CellsSkipped != 49 {
		t.Fatalf("skipped %d queued cells, want 49", s.CellsSkipped)
	}
}

// TestSweepOnBitIdenticalAcrossPoolSizes: the same sweep on a one-worker
// pool (the serial baseline) and on a shared eight-worker pool at another
// priority must produce identical results — the pool is invisible to the
// determinism contract.
func TestSweepOnBitIdenticalAcrossPoolSizes(t *testing.T) {
	jobs := func() []Job[uint64] {
		var js []Job[uint64]
		for i := 0; i < 40; i++ {
			js = append(js, Job[uint64]{
				Key: SweepKey("env", i),
				Run: func(seed uint64) uint64 { return seed * 2654435761 },
			})
		}
		return js
	}
	serial := sweep(99, 1, jobs())
	p := NewPool(8)
	defer p.Close()
	pooled, m, err := SweepOn(context.Background(), p, 3, 99, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != len(serial) {
		t.Fatalf("Completed=%d want %d", m.Completed, len(serial))
	}
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Fatalf("cell %d: %x vs %x", i, serial[i], pooled[i])
		}
	}
}
