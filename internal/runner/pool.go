package runner

import (
	"context"
	"sync"
	"time"
)

// Pool is a fixed set of worker goroutines — the one in-process scheduler
// every fan-out runs on. A long-running service shares one pool across
// many concurrent fan-outs; a one-shot caller starts a pool sized for a
// single fan-out and closes it afterwards. Each Do call enqueues its cells
// onto one priority queue (higher priority first, FIFO within a
// priority); workers drain the queue cell by cell, so an 8-cell sweep and
// a 200-cell sweep submitted together interleave instead of serializing,
// and a high-priority latency-sensitive job overtakes queued bulk work.
//
// Cancellation is two-speed by design: when a Do's context is cancelled,
// its still-queued cells are removed from the queue immediately (they
// never run), while its in-flight cells drain to completion — a cell is
// never interrupted mid-simulation, so everything that ran is bit-identical
// to a serial run and everything cached stays consistent.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  cellQueue
	seq    uint64
	closed bool
	wg     sync.WaitGroup

	// lifetime accounting (under mu)
	cellsRun     int64
	cellsSkipped int64
	running      int
	busy         time.Duration
}

// poolCell is one queued unit of work: cell job of submission sub.
type poolCell struct {
	sub *poolSub
	job int
	pri int
	seq uint64
}

// poolSub tracks one Do call across its cells. Guarded by the pool mutex.
type poolSub struct {
	fn        func(int)
	ctx       context.Context
	start     time.Time
	m         *Metrics
	pending   int // cells not yet run or skipped
	completed int
	done      chan struct{}
}

// cellQueue is a max-heap over (priority, -seq): highest priority first,
// submission order within a priority. A plain slice heap is fine — queue
// depth is bounded by the sum of in-flight fan-out sizes.
type cellQueue []poolCell

func (q cellQueue) less(i, j int) bool {
	if q[i].pri != q[j].pri {
		return q[i].pri > q[j].pri
	}
	return q[i].seq < q[j].seq
}

func (q *cellQueue) push(c poolCell) {
	*q = append(*q, c)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*q).less(i, p) {
			break
		}
		(*q)[i], (*q)[p] = (*q)[p], (*q)[i]
		i = p
	}
}

func (q *cellQueue) pop() poolCell {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = poolCell{}
	*q = h[:n]
	q.siftDown(0)
	return top
}

func (q *cellQueue) siftDown(i int) {
	h := *q
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h.less(l, min) {
			min = l
		}
		if r < len(h) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// removeSub filters every queued cell of sub out of the queue and returns
// how many were removed. O(n) + re-heapify — cancellation is rare.
func (q *cellQueue) removeSub(sub *poolSub) int {
	h := *q
	kept := h[:0]
	removed := 0
	for _, c := range h {
		if c.sub == sub {
			removed++
			continue
		}
		kept = append(kept, c)
	}
	for i := len(kept); i < len(h); i++ {
		h[i] = poolCell{}
	}
	*q = kept
	// Restore the heap property over the survivors.
	for i := len(kept)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	return removed
}

// PoolStats is a snapshot of a pool's lifetime and instantaneous state —
// the runner half of a service's metrics endpoint.
type PoolStats struct {
	// Workers is the fixed worker-goroutine count.
	Workers int
	// QueueDepth is the number of cells currently waiting for a worker.
	QueueDepth int
	// Running is the number of cells executing right now.
	Running int
	// CellsRun is the lifetime count of cells executed.
	CellsRun int64
	// CellsSkipped is the lifetime count of queued cells dropped by
	// cancellation before running.
	CellsSkipped int64
	// Busy is the summed execution time of all completed cells.
	Busy time.Duration
}

// NewPool starts a pool of Workers(workers) goroutines. Close it when done.
func NewPool(workers int) *Pool {
	p := &Pool{workers: Workers(workers)}
	p.cond = sync.NewCond(&p.mu)
	for g := 0; g < p.workers; g++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the fixed worker count.
func (p *Pool) Workers() int { return p.workers }

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:      p.workers,
		QueueDepth:   len(p.queue),
		Running:      p.running,
		CellsRun:     p.cellsRun,
		CellsSkipped: p.cellsSkipped,
		Busy:         p.busy,
	}
}

// Close drains the queue, stops the workers, and waits for them to exit.
// Callers must not race Close with new Do calls.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		c := p.queue.pop()
		sub := c.sub
		if sub.ctx.Err() != nil {
			// The fan-out was cancelled while this cell sat queued: drop it.
			p.cellsSkipped++
			p.finishCellLocked(sub)
			p.mu.Unlock()
			continue
		}
		sub.m.QueueWait[c.job] = time.Since(sub.start)
		p.running++
		p.mu.Unlock()

		t0 := time.Now()
		sub.fn(c.job)
		d := time.Since(t0)

		p.mu.Lock()
		sub.m.JobWall[c.job] = d
		sub.completed++
		p.running--
		p.cellsRun++
		p.busy += d
		p.finishCellLocked(sub)
		p.mu.Unlock()
	}
}

// finishCellLocked retires one cell (run or skipped) of sub and signals
// its Do call when the last cell retires.
func (p *Pool) finishCellLocked(sub *poolSub) {
	sub.pending--
	if sub.pending == 0 {
		close(sub.done)
	}
}

// Do enqueues fn(0), …, fn(n-1) as n cells at the given priority and
// blocks until every cell has either run or been dropped by cancellation.
// fn must not share mutable state across cells; writes to distinct
// elements of a shared results slice are the intended merge pattern. Once
// ctx is done no further cell is claimed: queued cells are removed
// promptly, in-flight cells drain — fn is never interrupted mid-cell — and
// the cells that ran are exactly the prefix [0, Metrics.Completed) (cells
// of one Do carry consecutive sequence numbers at equal priority, so
// workers claim them in index order), each bit-identical to what a serial
// uncancelled run would have produced for that index. Returns ctx.Err()
// when cut short, nil when every cell ran.
func (p *Pool) Do(ctx context.Context, priority, n int, fn func(job int)) (Metrics, error) {
	m := Metrics{
		Jobs:      n,
		Workers:   min(p.workers, n),
		JobWall:   make([]time.Duration, n),
		QueueWait: make([]time.Duration, n),
	}
	if n == 0 {
		return m, ctx.Err()
	}
	sub := &poolSub{
		fn:      fn,
		ctx:     ctx,
		start:   time.Now(),
		m:       &m,
		pending: n,
		done:    make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("runner: Do on a closed Pool")
	}
	for i := 0; i < n; i++ {
		p.seq++
		p.queue.push(poolCell{sub: sub, job: i, pri: priority, seq: p.seq})
	}
	p.cond.Broadcast()
	p.mu.Unlock()

	select {
	case <-sub.done:
	case <-ctx.Done():
		// Pull this fan-out's queued cells out of the queue right away —
		// prompt cancellation must not wait for workers to churn through
		// whatever sits ahead of them — then wait for in-flight cells to
		// drain.
		p.mu.Lock()
		skipped := p.queue.removeSub(sub)
		p.cellsSkipped += int64(skipped)
		sub.pending -= skipped
		if skipped > 0 && sub.pending == 0 {
			close(sub.done)
		}
		p.mu.Unlock()
		<-sub.done
	}
	p.mu.Lock()
	m.Completed = sub.completed
	p.mu.Unlock()
	m.Wall = time.Since(sub.start)
	return m, ctx.Err()
}
