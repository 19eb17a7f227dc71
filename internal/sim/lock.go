package sim

// Lock is an exclusive FIFO lock resource (ticket-lock semantics): waiters
// are granted the lock in arrival order. Arrival order at the same virtual
// time is the event-schedule order, which the engine makes deterministic.
//
// Locks are pure resources: they track ownership and queue waiters, but the
// duration of a hold is decided by the holder (the kernel executor models
// hold times, including preemption of the holder by housekeeping noise, and
// calls Release when the modeled critical section ends).
type Lock struct {
	eng  *Engine
	name string

	held    bool
	waiters []waiter

	// Contention counters, used by tests and by kernel introspection.
	acquires  uint64
	contended uint64
	maxQueue  int
	totalWait Time
}

// waiter is one queued request: its grant callback and arrival time.
type waiter struct {
	granted func()
	at      Time
}

// NewLock returns an unheld lock attached to eng. The name is used only for
// diagnostics.
func NewLock(eng *Engine, name string) *Lock {
	return &Lock{eng: eng, name: name}
}

// NewLockSlab returns n unnamed, unheld locks backed by a single
// allocation. Use it when constructing lock families in bulk; the locks
// must be addressed in place (&slab[i]) — the slab must not be copied or
// grown.
func NewLockSlab(eng *Engine, n int) []Lock {
	locks := make([]Lock, n)
	for i := range locks {
		locks[i].eng = eng
	}
	return locks
}

// Name returns the diagnostic name given at construction ("" for slab
// locks).
func (l *Lock) Name() string { return l.name }

// Held reports whether the lock is currently owned.
func (l *Lock) Held() bool { return l.held }

// QueueLen returns the number of waiters currently queued.
func (l *Lock) QueueLen() int { return len(l.waiters) }

// Acquires returns the total number of grants so far.
func (l *Lock) Acquires() uint64 { return l.acquires }

// Contended returns the number of grants that had to wait.
func (l *Lock) Contended() uint64 { return l.contended }

// MaxQueue returns the longest waiter queue observed.
func (l *Lock) MaxQueue() int { return l.maxQueue }

// TotalWait returns the cumulative time grants spent queued.
func (l *Lock) TotalWait() Time { return l.totalWait }

// Acquire requests the lock. If it is free the grant callback runs
// synchronously (zero virtual time elapses); otherwise the caller queues and
// granted runs when the lock is handed over.
func (l *Lock) Acquire(granted func()) {
	l.acquires++
	if !l.held {
		l.held = true
		granted()
		return
	}
	l.contended++
	l.waiters = append(l.waiters, waiter{granted, l.eng.Now()})
	if len(l.waiters) > l.maxQueue {
		l.maxQueue = len(l.waiters)
	}
}

// Release hands the lock to the oldest waiter, or frees it. The next grant
// callback runs synchronously at the current virtual time; a hand-off delay,
// if the model wants one, belongs in the holder's modeled hold time.
func (l *Lock) Release() {
	if !l.held {
		panic("sim: Release of unheld lock " + l.name)
	}
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	next := l.waiters[0]
	l.waiters = l.waiters[1:]
	l.totalWait += l.eng.Now() - next.at
	next.granted()
}
