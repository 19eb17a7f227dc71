package kernel

import (
	"fmt"
	"sort"
	"strings"

	"ksa/internal/sim"
)

// LockStats is one lock's contention summary.
type LockStats struct {
	Name      string
	Acquires  uint64
	Contended uint64
	MaxQueue  int
	TotalWait sim.Time
}

// ContentionRate returns the fraction of acquires that had to wait.
func (l LockStats) ContentionRate() float64 {
	if l.Acquires == 0 {
		return 0
	}
	return float64(l.Contended) / float64(l.Acquires)
}

// lockNames maps the named (non-sharded) locks to human-readable labels.
var lockNames = map[LockID]string{
	LockTasklist:    "tasklist",
	LockPIDMap:      "pidmap",
	LockLoadBalance: "loadbalance",
	LockZone:        "zone",
	LockLRU:         "lru",
	LockDcache:      "rename/dcache-global",
	LockJournal:     "journal",
	LockMount:       "mount",
	LockIPC:         "sysv-ipc",
	LockAudit:       "audit",
	LockCred:        "cred",
	LockCgroup:      "cgroup",
}

// lockTraceNames maps every LockID to its blame-attribution name: named
// locks keep their human-readable label, shards collapse onto their family
// (per-shard identity is noise at attribution granularity — what matters
// is *which structure*, not which hash bucket).
var lockTraceNames = buildLockTraceNames()

func buildLockTraceNames() []string {
	names := make([]string, lockTotalCount)
	for id, n := range lockNames {
		names[id] = n
	}
	for _, fam := range shardFamilies {
		for i := 0; i < fam.count; i++ {
			names[fam.base+LockID(i)] = fam.name
		}
	}
	for i, n := range names {
		if n == "" {
			names[i] = fmt.Sprintf("lock%d", i)
		}
	}
	return names
}

// TraceLockName returns the tracing/blame name for a lock.
func TraceLockName(id LockID) string { return lockTraceNames[id] }

// shardFamilies aggregates the sharded lock families.
var shardFamilies = []struct {
	name  string
	base  LockID
	count int
}{
	{"runqueue[*]", LockRunqueue, 256},
	{"inode[*]", LockInodeBase, NumInodeShards},
	{"futex[*]", LockFutexBase, NumFutexShards},
	{"pipe/sock/ipcobj[*]", LockPipeBase, NumPipeShards},
	{"dcache[*]", LockDcacheBase, NumDcacheShards},
}

// ContentionReport summarizes every shared lock's contention, the IPI bus,
// and the block device, sorted by total wait time — the first place to look
// when asking *where* a shared kernel's interference comes from.
type ContentionReport struct {
	Kernel string
	Locks  []LockStats
	IPIBus LockStats
	Device struct {
		Name      string
		Acquires  uint64
		Contended uint64
		MaxQueue  int
	}
	Activity Stats
}

// Contention builds the report from the kernel's current counters.
func (k *Kernel) Contention() ContentionReport {
	var rep ContentionReport
	rep.Kernel = k.cfg.Name
	for id := range lockNames {
		rep.Locks = append(rep.Locks, k.LockStats(id))
	}
	for _, fam := range shardFamilies {
		agg := LockStats{Name: fam.name}
		for i := 0; i < fam.count; i++ {
			s := k.LockStats(fam.base + LockID(i))
			agg.Acquires += s.Acquires
			agg.Contended += s.Contended
			agg.TotalWait += s.TotalWait
			agg.MaxQueue = max(agg.MaxQueue, s.MaxQueue)
		}
		rep.Locks = append(rep.Locks, agg)
	}
	sort.Slice(rep.Locks, func(i, j int) bool {
		if rep.Locks[i].TotalWait != rep.Locks[j].TotalWait {
			return rep.Locks[i].TotalWait > rep.Locks[j].TotalWait
		}
		return rep.Locks[i].Name < rep.Locks[j].Name
	})
	rep.IPIBus = LockStats{
		Name: "ipi-bus", Acquires: k.ipiBus.Acquires(),
		Contended: k.ipiBus.Contended(), MaxQueue: k.ipiBus.MaxQueue(),
		TotalWait: k.ipiBus.TotalWait(),
	}
	rep.Device.Name = k.blockDev.Name()
	rep.Device.Acquires = k.blockDev.Acquires()
	rep.Device.Contended = k.blockDev.Contended()
	rep.Device.MaxQueue = k.blockDev.MaxQueue()
	rep.Activity = k.stats
	return rep
}

// String renders the report as an aligned table of the non-idle locks.
func (r ContentionReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s: %d tasks, %d IPIs, %d block IOs, %d VM exits\n",
		r.Kernel, r.Activity.TasksRun, r.Activity.IPIs, r.Activity.BlockIOs, r.Activity.VMExits)
	fmt.Fprintf(&sb, "noise stolen %v over %d bursts; tick stolen %v\n",
		r.Activity.NoiseStolen, r.Activity.NoiseBursts, r.Activity.TickStolen)
	fmt.Fprintf(&sb, "%-22s %10s %10s %7s %12s %8s\n",
		"lock", "acquires", "contended", "maxq", "total wait", "rate")
	rows := append([]LockStats{r.IPIBus}, r.Locks...)
	for _, l := range rows {
		if l.Acquires == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-22s %10d %10d %7d %12v %7.1f%%\n",
			l.Name, l.Acquires, l.Contended, l.MaxQueue, l.TotalWait, 100*l.ContentionRate())
	}
	if r.Device.Acquires > 0 {
		fmt.Fprintf(&sb, "%-22s %10d %10d %7d\n",
			"block-device", r.Device.Acquires, r.Device.Contended, r.Device.MaxQueue)
	}
	return sb.String()
}
