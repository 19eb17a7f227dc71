package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Dispatch errors. A run callback classifies its failure by wrapping one
// of these sentinels (errors.Is); anything else aborts the whole dispatch.
var (
	// ErrSlotFailed marks a worker slot as dead: its item is requeued for
	// another slot and the slot claims nothing further. The transport
	// errors of a SIGKILLed worker process wrap this.
	ErrSlotFailed = errors.New("runner: worker slot failed")
	// ErrRetryItem requeues the item but keeps the slot alive — the
	// "someone else holds this cell's lease, come back later" signal.
	ErrRetryItem = errors.New("runner: retry item")
)

// DispatchMetrics describes one Dispatch call's execution.
type DispatchMetrics struct {
	// Items is the number of work items.
	Items int
	// Completed is how many items finished successfully.
	Completed int
	// PerSlot[i] is how many items slot i completed.
	PerSlot []int
	// Retries counts ErrRetryItem requeues.
	Retries int
	// SlotFailures counts slots retired by ErrSlotFailed.
	SlotFailures int
	// Wall is the total host time from first claim to last completion.
	Wall time.Duration
}

// String summarizes the dispatch for CLI output.
func (m DispatchMetrics) String() string {
	return fmt.Sprintf("dispatch[%d items on %d slots: wall %v, %d retries, %d slot failures]",
		m.Items, len(m.PerSlot), m.Wall.Round(time.Millisecond), m.Retries, m.SlotFailures)
}

// Dispatch drives items 0..n-1 through a set of worker slots — the
// work-queue primitive a distributed sweep's coordinator runs on. Each
// slot (one goroutine per entry of slots) repeatedly claims the lowest
// pending item and calls run(ctx, slot index, item). The failure protocol:
//
//   - nil: the item is complete.
//   - errors wrapping ErrSlotFailed: the slot is dead (its process was
//     killed, its connection refused). The item returns to the pending
//     queue for another slot; this slot claims nothing further.
//   - errors wrapping ErrRetryItem: the item returns to the back of the
//     pending queue and the slot moves on — backoff belongs inside run,
//     which knows why the item was not runnable.
//   - any other error: the dispatch aborts; pending items are abandoned
//     and the error is returned.
//
// Dispatch returns when every item completed (nil error), when ctx is
// cancelled mid-run (ctx.Err() — in-flight run calls are not interrupted,
// matching the pool's drain semantics), when every slot died with items
// still pending, or when a run aborted. Unlike Pool.Do, completion
// order carries no prefix guarantee: slots of different speeds complete
// items out of order, and durability across failures comes from the
// result cache, not from ordering.
func Dispatch(ctx context.Context, slots, n int, run func(ctx context.Context, slot, item int) error) (DispatchMetrics, error) {
	m := DispatchMetrics{Items: n, PerSlot: make([]int, slots)}
	start := time.Now()
	if n == 0 {
		return m, ctx.Err()
	}
	if slots <= 0 {
		return m, errors.New("runner: Dispatch needs at least one slot")
	}

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		pending []int // queue of item indexes
		inRun   int   // items currently inside run
		live    = slots
		abort   error
	)
	for i := 0; i < n; i++ {
		pending = append(pending, i)
	}
	// Wake blocked slots when the context dies so they can re-check.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			cond.Broadcast()
		case <-done:
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				mu.Lock()
				// An idle slot waits while items are in flight elsewhere:
				// a peer's failure may requeue its item for us.
				for len(pending) == 0 && inRun > 0 && abort == nil && ctx.Err() == nil {
					cond.Wait()
				}
				if len(pending) == 0 || abort != nil || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				item := pending[0]
				pending = pending[1:]
				inRun++
				mu.Unlock()

				err := run(ctx, s, item)

				mu.Lock()
				inRun--
				switch {
				case err == nil:
					m.Completed++
					m.PerSlot[s]++
				case errors.Is(err, ErrSlotFailed):
					m.SlotFailures++
					live--
					pending = append(pending, item)
					if live == 0 && abort == nil {
						abort = fmt.Errorf("runner: all %d slots failed with %d item(s) pending (last: %w)",
							slots, len(pending), err)
					}
					cond.Broadcast()
					mu.Unlock()
					return // this slot claims nothing further
				case errors.Is(err, ErrRetryItem):
					m.Retries++
					pending = append(pending, item)
				default:
					if abort == nil {
						abort = err
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	m.Wall = time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	if abort != nil {
		return m, abort
	}
	if err := ctx.Err(); err != nil {
		return m, err
	}
	if m.Completed != n {
		return m, fmt.Errorf("runner: dispatch stalled with %d of %d items complete", m.Completed, n)
	}
	return m, nil
}
