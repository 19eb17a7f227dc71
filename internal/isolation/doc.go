// Package isolation measures cross-tenant interference through the kernel
// lock graph, the direct isolation metric the interference ablation only
// observes end to end.
//
// One Recorder spans every kernel of an environment: each kernel observes
// it through Recorder.KernelObserver, attached before work is submitted.
// The observer turns the kernel's task events into three hot-path facts on
// named Scopes (one per lock family per kernel, plus the IPI bus and
// block-device queues, which may be shared across kernels): every
// acquisition (Scope.Touch), every contended grant with its
// injected-vs-emergent wait split (Scope.Wait), and every completed hold
// (Scope.Hold). Task completion retains per-tenant wall/wait tuples
// (Recorder.EndTask).
//
// From that graph the package derives the per-environment isolation score
// — the fraction of tail (per-tenant p99-and-above) wall time caused by
// other tenants' lock holds — together with the shared-lock-surface count
// ("Locked In, Leaked Out": how many lock families at least two tenants
// acquire), per-family cross-tenant wait matrices (Matrix), and a
// top-leaking-locks ranking (Families). All accounting is integer sim.Time
// arithmetic in deterministic order, so scores are bit-identical across
// serial and fan-out execution.
//
// The tenant model and the cross-wait identity it licenses are documented
// in DESIGN.md §15; docs/METRICS.md defines every derived statistic.
package isolation
