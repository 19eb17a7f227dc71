package sim

import (
	"testing"
	"testing/quick"
)

func TestLockUncontendedIsSynchronous(t *testing.T) {
	e := NewEngine()
	l := NewLock(e, "test")
	granted := false
	l.Acquire(func() { granted = true })
	if !granted {
		t.Fatal("uncontended acquire not granted synchronously")
	}
	if !l.Held() {
		t.Fatal("lock not held after grant")
	}
	l.Release()
	if l.Held() {
		t.Fatal("lock held after release")
	}
}

func TestLockFIFOOrder(t *testing.T) {
	e := NewEngine()
	l := NewLock(e, "fifo")
	var order []int
	// Holder takes the lock at t=0 for 100ns; three waiters queue in order.
	l.Acquire(func() {
		e.After(100, func() { l.Release() })
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.At(Time(i), func() {
			l.Acquire(func() {
				order = append(order, i)
				e.After(10, func() { l.Release() })
			})
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("grants out of FIFO order: %v", order)
	}
}

func TestLockWaitAccounting(t *testing.T) {
	e := NewEngine()
	l := NewLock(e, "acct")
	l.Acquire(func() { e.At(100, func() { l.Release() }) })
	e.At(20, func() {
		l.Acquire(func() { l.Release() })
	})
	e.Run()
	if l.TotalWait() != 80 {
		t.Fatalf("TotalWait = %v, want 80ns", l.TotalWait())
	}
	if l.Contended() != 1 || l.Acquires() != 2 {
		t.Fatalf("contended=%d acquires=%d", l.Contended(), l.Acquires())
	}
	if l.MaxQueue() != 1 {
		t.Fatalf("MaxQueue = %d", l.MaxQueue())
	}
}

func TestLockReleaseUnheldPanics(t *testing.T) {
	e := NewEngine()
	l := NewLock(e, "panic")
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unheld lock did not panic")
		}
	}()
	l.Release()
}

// Property: under any arrival pattern, total grants equal total requests
// once every holder releases, and the queue drains.
func TestLockDrainsProperty(t *testing.T) {
	if err := quick.Check(func(arrivals []uint8) bool {
		if len(arrivals) == 0 {
			return true
		}
		e := NewEngine()
		l := NewLock(e, "prop")
		grants := 0
		for _, a := range arrivals {
			at := Time(a)
			e.At(at, func() {
				l.Acquire(func() {
					grants++
					e.After(3, func() { l.Release() })
				})
			})
		}
		e.Run()
		return grants == len(arrivals) && !l.Held() && l.QueueLen() == 0
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRWLockReadersShare(t *testing.T) {
	e := NewEngine()
	l := NewRWLock(e, "rw")
	admitted := 0
	for i := 0; i < 5; i++ {
		l.RLock(func() { admitted++ })
	}
	if admitted != 5 || l.Readers() != 5 {
		t.Fatalf("admitted=%d readers=%d, want 5 concurrent readers", admitted, l.Readers())
	}
	for i := 0; i < 5; i++ {
		l.RUnlock()
	}
	if l.Readers() != 0 {
		t.Fatal("readers remain after unlocks")
	}
}

func TestRWLockWriterExcludes(t *testing.T) {
	e := NewEngine()
	l := NewRWLock(e, "rw")
	var order []string
	l.Lock(func() {
		order = append(order, "w1")
		e.After(100, func() { l.Unlock() })
	})
	e.At(10, func() {
		l.RLock(func() {
			order = append(order, "r")
			l.RUnlock()
		})
	})
	e.Run()
	if len(order) != 2 || order[0] != "w1" || order[1] != "r" {
		t.Fatalf("order = %v", order)
	}
}

func TestRWLockWriterPreference(t *testing.T) {
	e := NewEngine()
	l := NewRWLock(e, "rw")
	var order []string
	// Reader holds; writer queues; a later reader must NOT be admitted ahead
	// of the queued writer.
	l.RLock(func() {
		e.After(100, func() { l.RUnlock() })
	})
	e.At(10, func() {
		l.Lock(func() {
			order = append(order, "w")
			e.After(10, func() { l.Unlock() })
		})
	})
	e.At(20, func() {
		l.RLock(func() {
			order = append(order, "r2")
			l.RUnlock()
		})
	})
	e.Run()
	if len(order) != 2 || order[0] != "w" || order[1] != "r2" {
		t.Fatalf("writer preference violated: %v", order)
	}
}

func TestRWLockReaderBatching(t *testing.T) {
	e := NewEngine()
	l := NewRWLock(e, "rw")
	l.Lock(func() { e.After(50, func() { l.Unlock() }) })
	var batch []Time
	for i := 0; i < 4; i++ {
		e.At(Time(i+1), func() {
			l.RLock(func() { batch = append(batch, e.Now()) })
		})
	}
	e.Run()
	if len(batch) != 4 {
		t.Fatalf("admitted %d readers, want 4", len(batch))
	}
	for _, at := range batch {
		if at != 50 {
			t.Fatalf("reader batch not admitted together: %v", batch)
		}
	}
}

func TestRWLockUnlockPanics(t *testing.T) {
	e := NewEngine()
	l := NewRWLock(e, "rw")
	for _, fn := range []func(){l.Unlock, l.RUnlock} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("unlock of unheld RWLock did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 3, 0)
	var times []Time
	for i, at := range []Time{5, 10, 40} {
		_ = i
		at := at
		e.At(at, func() {
			b.Arrive(func() { times = append(times, e.Now()) })
		})
	}
	e.Run()
	if len(times) != 3 {
		t.Fatalf("released %d parties, want 3", len(times))
	}
	for _, tm := range times {
		if tm != 40 {
			t.Fatalf("parties released at %v, want all at 40", times)
		}
	}
	if b.Epochs() != 1 {
		t.Fatalf("epochs = %d", b.Epochs())
	}
}

func TestBarrierLatencyScalesLog(t *testing.T) {
	e := NewEngine()
	if NewBarrier(e, 1, 10).ReleaseLatency() != 0 {
		t.Error("1-party barrier should have zero latency")
	}
	if NewBarrier(e, 2, 10).ReleaseLatency() != 10 {
		t.Error("2-party barrier should have 1 hop")
	}
	if NewBarrier(e, 64, 10).ReleaseLatency() != 60 {
		t.Error("64-party barrier should have 6 hops")
	}
	if NewBarrier(e, 65, 10).ReleaseLatency() != 70 {
		t.Error("65-party barrier should have 7 hops")
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 2, 0)
	count := 0
	var arrive func()
	arrive = func() {
		b.Arrive(func() {
			count++
			if count < 4 {
				e.After(10, arrive)
			}
		})
	}
	arrive()
	arrive()
	e.Run()
	if count != 4 || b.Epochs() != 2 {
		t.Fatalf("count=%d epochs=%d, want 4 releases over 2 epochs", count, b.Epochs())
	}
}

// A warmed barrier's arrive/release cycle allocates nothing: each epoch
// reuses the waiting list.
func TestBarrierEpochAllocFree(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 8, 1)
	fn := func() {}
	epoch := func() {
		for i := 0; i < 8; i++ {
			b.Arrive(fn)
		}
		e.Run()
	}
	epoch() // grows the waiting list and the event slab
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("%v allocs per epoch, want 0", n)
	}
	if b.Epochs() != 102 {
		t.Fatalf("epochs = %d, want 102", b.Epochs())
	}
}

func TestBarrierZeroPartiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-party barrier did not panic")
		}
	}()
	NewBarrier(NewEngine(), 0, 0)
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
	e.Run()
}

func BenchmarkLockHandoff(b *testing.B) {
	e := NewEngine()
	l := NewLock(e, "bench")
	for i := 0; i < b.N; i++ {
		l.Acquire(func() { e.After(1, func() { l.Release() }) })
		if e.Pending() > 512 {
			e.Run()
		}
	}
	e.Run()
}
