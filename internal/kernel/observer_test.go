package kernel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ksa/internal/rng"
	"ksa/internal/sim"
)

// callLog is a fake Observer that logs every call it receives, in order.
type callLog struct{ calls []string }

func (l *callLog) add(format string, args ...any) {
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
}

func (l *callLog) BeginTask(core, tenant int, label string, start, queueWait sim.Time) {
	l.add("begin %d tenant=%d %s start=%d queue=%d", core, tenant, label, start, queueWait)
}
func (l *callLog) Compute(core int, d sim.Time) { l.add("compute %d %d", core, d) }
func (l *callLog) LockAcquired(core int, id LockID, wait, injWait sim.Time, waiters int) {
	l.add("acquire %d %d wait=%d inj=%d waiters=%d", core, id, wait, injWait, waiters)
}
func (l *callLog) LockReleased(core int, id LockID, hold sim.Time) {
	l.add("release %d %d hold=%d", core, id, hold)
}
func (l *callLog) MMapWait(core int, wait sim.Time) { l.add("mmap %d %d", core, wait) }
func (l *callLog) Steal(core int, kind StealKind, d sim.Time) {
	l.add("steal %d %s %d", core, kind, d)
}
func (l *callLog) IPI(core, targets int, busWait, cost sim.Time) {
	l.add("ipi %d targets=%d wait=%d cost=%d", core, targets, busWait, cost)
}
func (l *callLog) IPIBusReleased(core int, hold sim.Time) { l.add("ipi-release %d %d", core, hold) }
func (l *callLog) BlockIO(core int, qWait, hostWait, service sim.Time) {
	l.add("blockio %d q=%d host=%d service=%d", core, qWait, hostWait, service)
}
func (l *callLog) Sleep(core int, d sim.Time)      { l.add("sleep %d %d", core, d) }
func (l *callLog) EndTask(core int, wall sim.Time) { l.add("end %d %d", core, wall) }

// observedRun runs a fixed mixed workload — nested locks, IPIs, block I/O
// through a host queue, sleeps, mmap_sem, VM exits, housekeeping noise and
// several tasks queued per core — on a four-core guest kernel with obs
// attached, and returns its Stats and task latencies in completion order.
func observedRun(obs ...Observer) (Stats, []sim.Time) {
	eng := sim.NewEngine()
	host := sim.NewSemaphore(eng, "host-blk", 1)
	k := New(eng, Config{
		Name: "vm", Cores: 4, MemGB: 2,
		Virt: &VirtModel{ExitCost: sim.Microsecond, HostBlockQueue: host,
			VirtioRelay: 20 * sim.Microsecond, HostNoiseGap: 200 * sim.Microsecond,
			HostNoiseMin: sim.Microsecond, HostNoiseMax: 30 * sim.Microsecond},
	}, rng.New(5))
	for _, o := range obs {
		k.Observe(o)
	}
	mm := sim.NewRWLock(eng, "mm")
	var lats []sim.Time
	for c := 0; c < 4; c++ {
		for i := 0; i < 3; i++ {
			var l OpList
			l.Lock(LockDcache).Lock(LockJournal).ComputeExits(30*sim.Microsecond, 2).
				Unlock(LockJournal).Crit(LockInodeBase+LockID(c%2), 15*sim.Microsecond).
				Unlock(LockDcache).IPI().MMapWrite(10 * sim.Microsecond).
				BlockIO(40 * sim.Microsecond).Sleep(50 * sim.Microsecond).
				MMapRead(5 * sim.Microsecond).Compute(400 * sim.Microsecond)
			k.Submit(c, &Task{Ops: l.Ops(), AddrSpace: mm, Tenant: c,
				Label:  fmt.Sprintf("c%d/%d", c, i),
				OnDone: func(e sim.Time) { lats = append(lats, e) }})
		}
	}
	eng.Run()
	return k.Stats(), lats
}

// The observer contract: every attached observer sees the same calls;
// on each core BeginTask and EndTask alternate with every other call in
// between; lock grants and releases nest; and observing changes nothing.
func TestObserverContract(t *testing.T) {
	a, b := &callLog{}, &callLog{}
	st, lats := observedRun(a, b)
	if !reflect.DeepEqual(a.calls, b.calls) {
		t.Fatal("two attached observers saw different call sequences")
	}
	seen := map[string]bool{}
	open := map[string]bool{}
	held := map[string][]string{}
	for _, call := range a.calls {
		f := strings.Fields(call)
		kind, core := f[0], f[1]
		seen[kind] = true
		switch kind {
		case "begin":
			if open[core] {
				t.Fatalf("core %s: BeginTask while a task is open: %q", core, call)
			}
			open[core] = true
		case "end":
			if !open[core] {
				t.Fatalf("core %s: EndTask without BeginTask: %q", core, call)
			}
			if len(held[core]) != 0 {
				t.Fatalf("core %s: task ended holding %v", core, held[core])
			}
			open[core] = false
		default:
			if !open[core] {
				t.Fatalf("core %s: %q outside a task", core, call)
			}
		}
		switch kind {
		case "acquire":
			held[core] = append(held[core], f[2])
		case "release":
			n := len(held[core])
			if n == 0 || held[core][n-1] != f[2] {
				t.Fatalf("core %s: release of %s does not nest inside %v", core, f[2], held[core])
			}
			held[core] = held[core][:n-1]
		}
	}
	for _, kind := range []string{"begin", "compute", "acquire", "release", "mmap", "steal",
		"ipi", "ipi-release", "blockio", "sleep", "end"} {
		if !seen[kind] {
			t.Errorf("workload never produced a %s call", kind)
		}
	}

	plainStats, plainLats := observedRun()
	if plainStats != st {
		t.Fatalf("observing changed Stats:\n%v\n%v", plainStats, st)
	}
	if !reflect.DeepEqual(plainLats, lats) || len(lats) != 12 {
		t.Fatalf("observing changed task latencies:\n%v\n%v", plainLats, lats)
	}
}
