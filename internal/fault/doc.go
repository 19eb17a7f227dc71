// Package fault injects deterministic, seeded interference into simulated
// kernels the way real Linux noise perturbs syscall tails: lock-holder
// preemption (an injected holder keeps a named kernel lock for a sampled
// duration), background-daemon storms (kswapd/writeback-style sweeps that
// grab a whole class of locks in order), timer-interrupt jitter dosed onto
// on-CPU slices, and IPI/TLB-shootdown broadcasts that charge every core
// handler debt.
//
// A Plan is a small scenario DSL — which injectors, against which resource
// class, how often, how big. Plans reach the tools by preset name (the
// -fault flags, the daemon's JobSpec.Fault), never as text; Encode renders
// a plan's canonical text only so Sig can hash it. All randomness comes
// from an rng.Source the caller derives from the experiment seed, so serial
// and parallel runs of the same plan are bit-identical. Every injected
// event is tagged through internal/trace, letting blame decomposition
// separate *injected* from *emergent* wait time.
//
// Plan.Sig is the plan's deterministic fingerprint. It appears in sweep job
// keys (distinct plans derive distinct trial seeds) and in result-cache
// keys (internal/resultcache addresses a dosed cell by, among other inputs,
// the signature of the plan dosing it — so changing only the plan
// invalidates only the dosed entries and every clean baseline is reused).
//
// Presets ("memstorm", "fsflush", "tickstorm", "tlbstorm", "mixed") name
// ready-made plans; both CLIs accept them via -fault, and 'fault list'
// enumerates them.
package fault
