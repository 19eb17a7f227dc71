package isolation

import (
	"fmt"
	"testing"

	"ksa/internal/kernel"
	"ksa/internal/rng"
	"ksa/internal/sim"
)

func TestScoreTailFraction(t *testing.T) {
	r := NewRecorder(2)
	// Tenant 0: 100 fast tasks, one slow task whose wall is half cross-wait.
	for i := 0; i < 100; i++ {
		r.EndTask(0, 10, 0, 0, 0)
	}
	r.EndTask(0, 1000, 600, 500, 100)
	// Tenant 1: all tasks equal, no cross wait — its whole set is the tail.
	for i := 0; i < 4; i++ {
		r.EndTask(1, 50, 0, 0, 0)
	}
	sc := r.ComputeScore()

	// Tenant 0: n=101, p99 index ⌈0.99·101⌉=100 → sorted[99]=10? No:
	// ⌈99.99⌉=100 → walls[99]. With 100 tens and one 1000 the tail set is
	// {10, 1000} has wall≥10 — everything. Recompute: walls sorted, idx 100,
	// p99 = walls[99] = 10, so the tail is every task.
	wantTailWall := sim.Time(100*10 + 1000 + 4*50)
	if sc.TailWall != wantTailWall {
		t.Fatalf("tail wall = %d, want %d", sc.TailWall, wantTailWall)
	}
	if sc.TailCross != 500 || sc.TailInj != 100 {
		t.Fatalf("tail cross/inj = %d/%d, want 500/100", sc.TailCross, sc.TailInj)
	}
	want := float64(500) / float64(wantTailWall)
	if sc.Value != want {
		t.Fatalf("score = %v, want %v", sc.Value, want)
	}
	if sc.TailTasks != 105 {
		t.Fatalf("tail tasks = %d, want 105", sc.TailTasks)
	}
}

func TestScoreTailSelectsP99(t *testing.T) {
	r := NewRecorder(1)
	// 1000 tasks: 990 of wall 10, 10 of wall 100. p99 index ⌈990⌉ → the
	// sorted 990th (walls[989]=10)... ⌈0.99·1000⌉=990 → walls[989] = 10.
	// Use 10000 tasks so the threshold lands inside the slow block.
	for i := 0; i < 9900; i++ {
		r.EndTask(0, 10, 0, 0, 0)
	}
	for i := 0; i < 100; i++ {
		r.EndTask(0, 100, 50, 40, 10)
	}
	sc := r.ComputeScore()
	// ⌈0.99·10000⌉ = 9900 → walls[9899] = 10 is the largest fast wall, so
	// p99 = 10 and the tail is everything. To isolate the slow block, the
	// threshold must exceed 10: with 9901 fast tasks it is walls[9900]=100.
	if sc.TailTasks != 10000 {
		t.Fatalf("tail tasks = %d, want 10000 (p99 threshold at fast wall)", sc.TailTasks)
	}

	// ⌈0.99·10000⌉ = 9900 → threshold is walls[9899]; with only 9899 fast
	// tasks that lands in the slow block, so the tail is exactly the slow
	// block.
	r2 := NewRecorder(1)
	for i := 0; i < 9899; i++ {
		r2.EndTask(0, 10, 0, 0, 0)
	}
	for i := 0; i < 101; i++ {
		r2.EndTask(0, 100, 50, 40, 10)
	}
	sc2 := r2.ComputeScore()
	if sc2.TailTasks != 101 {
		t.Fatalf("tail tasks = %d, want 101 (only the slow block)", sc2.TailTasks)
	}
	want := float64(101*40) / float64(101*100)
	if sc2.Value != want {
		t.Fatalf("score = %v, want %v", sc2.Value, want)
	}
}

func TestSharedSurface(t *testing.T) {
	r := NewRecorder(3)
	// Family "inode[*]" has two scopes; only one is multi-tenant.
	a := r.Scope("k0/inode[*]", "inode[*]")
	b := r.Scope("k1/inode[*]", "inode[*]")
	c := r.Scope("k0/runqueue[*]", "runqueue[*]")
	d := r.Scope("host-blk", "host-blk")

	a.Touch(0)
	a.Touch(1) // shared
	b.Touch(2) // touched, single-tenant
	c.Touch(0)
	c.Touch(0) // repeated same tenant: not shared
	_ = d      // never acquired: not touched

	shared, touched := r.SharedSurface()
	if shared != 1 || touched != 2 {
		t.Fatalf("surface = %d/%d, want 1/2", shared, touched)
	}
	if !a.Shared() || b.Shared() || c.Shared() {
		t.Fatal("per-scope Shared flags wrong")
	}

	sc := r.ComputeScore()
	if sc.SharedFamilies != 1 || sc.TouchedFamilies != 2 {
		t.Fatalf("score surface = %d/%d, want 1/2", sc.SharedFamilies, sc.TouchedFamilies)
	}
}

func TestWaitClampsInjected(t *testing.T) {
	r := NewRecorder(2)
	s := r.Scope("k/futex[*]", "futex[*]")
	s.Touch(0)
	s.Wait(0, 100, 140) // injected estimate above total: clamp, cross = 0
	s.Wait(0, 100, 30)  // cross = 70
	s.Wait(kernel.NoTenant, 50, 0)
	fams := r.Families()
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1", len(fams))
	}
	f := fams[0]
	if f.Wait != 200 || f.Cross != 70 || f.Inj != 130 {
		t.Fatalf("wait/cross/inj = %d/%d/%d, want 200/70/130", f.Wait, f.Cross, f.Inj)
	}
}

func TestMatrixProportionalAttribution(t *testing.T) {
	r := NewRecorder(3)
	s := r.Scope("k/dcache[*]", "dcache[*]")
	// Holders: tenant 1 holds 300, tenant 2 holds 100; waiter tenant 0
	// accumulated cross wait 80 → edges 60 to t1, 20 to t2.
	s.Touch(1)
	s.Hold(1, 300)
	s.Touch(2)
	s.Hold(2, 100)
	s.Touch(0)
	s.Wait(0, 80, 0)

	m := r.Matrix("dcache[*]")
	if m == nil {
		t.Fatal("nil matrix for contended family")
	}
	if m[0][1] != 60 || m[0][2] != 20 {
		t.Fatalf("edges = %d/%d, want 60/20", m[0][1], m[0][2])
	}
	if m[0][0] != 0 || m[1][0] != 0 {
		t.Fatal("self/reverse edges must be zero")
	}
	// Row sum equals the waiter's cross wait (exact here).
	if m[0][0]+m[0][1]+m[0][2] != 80 {
		t.Fatal("row sum != cross wait")
	}

	// Waiter excluded from its own attribution: tenant 1 waits while 2
	// holds; tenant 1's own holds must not dilute the edge.
	s.Wait(1, 40, 0)
	m = r.Matrix("dcache[*]")
	if m[1][2] != 40 {
		t.Fatalf("edge 1→2 = %d, want 40 (own holds excluded)", m[1][2])
	}

	if r.Matrix("no-such-family") != nil {
		t.Fatal("matrix for unknown family must be nil")
	}
}

func TestFamiliesRankingAndTopEdge(t *testing.T) {
	r := NewRecorder(2)
	hot := r.Scope("k/runqueue[*]", "runqueue[*]")
	cold := r.Scope("k/inode[*]", "inode[*]")

	hot.Touch(0)
	hot.Hold(0, 500)
	hot.Touch(1)
	hot.Wait(1, 200, 0)

	cold.Touch(0)
	cold.Hold(0, 10)
	cold.Touch(1)
	cold.Wait(1, 5, 0)

	fams := r.Families()
	if len(fams) != 2 || fams[0].Family != "runqueue[*]" || fams[1].Family != "inode[*]" {
		t.Fatalf("ranking wrong: %+v", fams)
	}
	f := fams[0]
	if f.From != 1 || f.To != 0 || f.Edge != 200 {
		t.Fatalf("top edge = %d→%d %d, want 1→0 200", f.From, f.To, f.Edge)
	}
	if f.Waiters != 1 || f.Holders != 1 || f.SharedScopes != 1 {
		t.Fatalf("waiters/holders/shared = %d/%d/%d", f.Waiters, f.Holders, f.SharedScopes)
	}
}

func TestEndTaskIgnoresOutOfRange(t *testing.T) {
	r := NewRecorder(1)
	r.EndTask(-1, 10, 0, 0, 0)
	r.EndTask(5, 10, 0, 0, 0)
	if r.Tasks() != 0 {
		t.Fatal("out-of-range tenants retained")
	}
	sc := r.ComputeScore()
	if sc.Value != 0 || sc.TailTasks != 0 {
		t.Fatal("empty recorder must score zero")
	}
}

// A guest's block I/O lands on both queues it passes through: the wait
// for the shared host queue on the host-blk scope, and the time each
// queue is held — the kernel's own from its grant through the host round
// trip — on each.
func TestKernelObserverBooksHostQueue(t *testing.T) {
	eng := sim.NewEngine()
	host := sim.NewSemaphore(eng, "host-blk", 1)
	r := NewRecorder(2)
	for tenant := 0; tenant < 2; tenant++ {
		k := kernel.New(eng, kernel.Config{
			Name: fmt.Sprintf("vm%d", tenant), Cores: 1, MemGB: 0.5,
			Params: kernel.Params{Quiet: true},
			Virt:   &kernel.VirtModel{HostBlockQueue: host, VirtioRelay: 25 * sim.Microsecond},
		}, rng.New(1))
		k.Observe(r.KernelObserver(k))
		var l kernel.OpList
		l.BlockIO(100 * sim.Microsecond)
		k.Submit(0, &kernel.Task{Ops: l.Ops(), Tenant: tenant})
	}
	eng.Run()
	per := 125 * sim.Microsecond // service + relay
	fams := map[string]FamilyAgg{}
	for _, fa := range r.Families() {
		fams[fa.Family] = fa
	}
	if h := fams["host-blk"]; h.Acquires != 2 || h.Wait != per || h.Cross != per || h.Hold != 2*per {
		t.Fatalf("host-blk = %+v, want 2 grants, %v of cross wait and %v of holds", h, per, 2*per)
	}
	// vm0 holds its queue for one round trip, vm1 for its host wait too.
	if b := fams["block-device"]; b.Acquires != 2 || b.Wait != 0 || b.Hold != 3*per {
		t.Fatalf("block-device = %+v, want 2 uncontended grants and %v of holds", b, 3*per)
	}
	if sc := r.ComputeScore(); sc.Wait != per || sc.Cross != per || sc.Wall != 3*per {
		t.Fatalf("score totals = %+v, want wait = cross = %v, wall %v", sc, per, 3*per)
	}
}
