// Package trace is the kernel blame-attribution subsystem. A Tracer is a
// kernel.Observer attached to one simulated kernel: from the executor's
// task events — lock grants and holds, housekeeping and interrupt steal by
// stream, IPI broadcasts and their dispatch serialization, journal commits
// (via the journal lock), block I/O queueing, sleeps — it aggregates
// per-lock wait/hold histograms (lockstat) and decomposes the wall time of
// every over-threshold task into its contributing mechanisms, naming the
// dominant one. It keeps those aggregates only; a caller that wants every
// event attaches an observer of its own.
//
// Tracing is strictly observational: hooks never draw randomness, never
// schedule events, and never touch kernel state, so attaching a tracer
// cannot change any virtual-time result (the determinism guard in
// internal/varbench asserts this bit-for-bit). With nothing attached the
// kernel's hook sites reduce to a length check.
//
// Because a Tracer is live mutable state bound to a kernel, traced results
// are not serializable: every caching layer (internal/resultcache via
// internal/core) bypasses the result cache for traced runs rather than
// store a result it could not faithfully reconstruct.
package trace
