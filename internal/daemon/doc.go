// Package daemon is the ksad control plane: a long-running service that
// admits experiment jobs over a versioned HTTP API, multiplexes them onto
// one shared runner pool with per-job priorities and cancellation, answers
// fully cached jobs straight from the content-addressed result store
// without occupying the pool, and streams per-job progress/cache/blame
// events to any number of subscribers with replay.
//
// The layering follows the moby daemon: an HTTP router (router.go) binds
// routes to a narrow Backend interface, the Daemon here implements it, and
// everything below is the ordinary experiment library — the daemon adds
// admission, scheduling, and observation, never new simulation semantics.
// Determinism survives service-ification: a job's results are
// bit-identical to the same experiment run by the one-shot CLIs, which is
// what lets N concurrent clients, the cache, and serial reruns all agree.
//
// Experiment jobs cover every entry of the core.Experiments table,
// including runs that can never be served from the store (the blame
// experiment's traced cell and the isolation experiment's contention cells
// bypass the cache in both directions).
package daemon
