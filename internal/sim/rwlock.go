package sim

// RWLock is a reader-writer lock resource with writer preference, modeling
// Linux rw-semaphores such as mmap_sem: any number of readers may hold it
// concurrently, writers are exclusive, and once a writer queues no new
// readers are admitted (preventing writer starvation, and — as in the real
// kernel — letting one slow writer stall a convoy of readers, a classic
// source of tail latency).
type RWLock struct {
	eng  *Engine
	name string

	readers int
	writer  bool

	// Queued requests in arrival order; each entry is a reader or writer.
	queue []rwWaiter

	acquires  uint64
	contended uint64
	maxQueue  int
}

type rwWaiter struct {
	write   bool
	granted func()
}

// NewRWLock returns an unheld reader-writer lock attached to eng.
func NewRWLock(eng *Engine, name string) *RWLock {
	return &RWLock{eng: eng, name: name}
}

// Reset returns an idle lock to its constructed state: it zeroes the
// counters. It panics if the lock is held or has waiters.
func (l *RWLock) Reset() {
	if l.readers > 0 || l.writer || len(l.queue) > 0 {
		panic("sim: Reset of busy RWLock " + l.name)
	}
	l.acquires, l.contended, l.maxQueue = 0, 0, 0
}

// Name returns the diagnostic name given at construction.
func (l *RWLock) Name() string { return l.name }

// Readers returns the number of readers currently holding the lock.
func (l *RWLock) Readers() int { return l.readers }

// WriterHeld reports whether a writer currently holds the lock.
func (l *RWLock) WriterHeld() bool { return l.writer }

// QueueLen returns the number of queued requests.
func (l *RWLock) QueueLen() int { return len(l.queue) }

// Acquires returns the total number of grants so far.
func (l *RWLock) Acquires() uint64 { return l.acquires }

// Contended returns the number of grants that had to wait.
func (l *RWLock) Contended() uint64 { return l.contended }

// MaxQueue returns the longest queue observed.
func (l *RWLock) MaxQueue() int { return l.maxQueue }

// RLock requests shared access. The grant runs synchronously when admitted.
func (l *RWLock) RLock(granted func()) {
	l.acquires++
	// Admit immediately only if no writer holds the lock and no writer is
	// queued ahead (writer preference).
	if !l.writer && !l.writerQueued() {
		l.readers++
		granted()
		return
	}
	l.contended++
	l.push(rwWaiter{write: false, granted: granted})
}

// Lock requests exclusive access. The grant runs synchronously when admitted.
func (l *RWLock) Lock(granted func()) {
	l.acquires++
	if !l.writer && l.readers == 0 && len(l.queue) == 0 {
		l.writer = true
		granted()
		return
	}
	l.contended++
	l.push(rwWaiter{write: true, granted: granted})
}

// RUnlock releases shared access.
func (l *RWLock) RUnlock() {
	if l.readers <= 0 {
		panic("sim: RUnlock without readers on " + l.name)
	}
	l.readers--
	if l.readers == 0 {
		l.dispatch()
	}
}

// Unlock releases exclusive access.
func (l *RWLock) Unlock() {
	if !l.writer {
		panic("sim: Unlock without writer on " + l.name)
	}
	l.writer = false
	l.dispatch()
}

func (l *RWLock) push(w rwWaiter) {
	l.queue = append(l.queue, w)
	if len(l.queue) > l.maxQueue {
		l.maxQueue = len(l.queue)
	}
}

func (l *RWLock) writerQueued() bool {
	for _, w := range l.queue {
		if w.write {
			return true
		}
	}
	return false
}

// dispatch admits the head of the queue: one writer, or a batch of
// consecutive readers.
func (l *RWLock) dispatch() {
	if len(l.queue) == 0 || l.writer || l.readers > 0 {
		return
	}
	if l.queue[0].write {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.writer = true
		w.granted()
		return
	}
	// Admit the leading run of readers together.
	var batch []func()
	for len(l.queue) > 0 && !l.queue[0].write {
		batch = append(batch, l.queue[0].granted)
		l.queue = l.queue[1:]
	}
	l.readers += len(batch)
	for _, g := range batch {
		g()
	}
}
