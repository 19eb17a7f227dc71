package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Backend is the narrow surface the HTTP layer needs from the daemon —
// the moby split: routes bind to this interface, never to the Daemon
// struct, so tests can drive the router with a stub and the daemon can
// grow without the wire format noticing.
type Backend interface {
	Submit(spec JobSpec) (JobInfo, error)
	Job(id string) (JobInfo, bool)
	Jobs() []JobInfo
	Cancel(id string) (JobInfo, bool)
	Events(id string) (*EventLog, bool)
	Metrics() MetricsInfo
	// RunCell executes one sweep cell synchronously — the worker-mode
	// endpoint a distributed coordinator drives. A spec it rejects maps
	// to 400, a *LeaseHeldError return to 409.
	RunCell(ctx context.Context, spec CellSpec) (CellResult, error)
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// NewRouter binds the versioned HTTP API to a backend.
//
//	POST   /v1/jobs             submit a JobSpec, returns JobInfo (202)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's info (includes result when done)
//	DELETE /v1/jobs/{id}        cancel; returns the post-cancel JobInfo
//	GET    /v1/jobs/{id}/events SSE stream with replay (?since=N)
//	POST   /v1/cells            run one sweep cell synchronously (worker
//	                            mode; 409 when another worker's lease holds)
//	GET    /v1/metrics          jobs-by-state, pool, and cache counters
//	GET    /v1/healthz          liveness probe
func NewRouter(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
			return
		}
		info, err := b.Submit(spec)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, info)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := b.Job(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := b.Cancel(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		log, ok := b.Events(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
			return
		}
		serveSSE(w, r, log)
	})
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var spec CellSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad cell spec: " + err.Error()})
			return
		}
		res, err := b.RunCell(r.Context(), spec)
		var held *LeaseHeldError
		var bad badSpec
		switch {
		case errors.As(err, &bad):
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		case errors.As(err, &held):
			// 409: the cell is being computed elsewhere. The body carries
			// the holder and expiry so coordinators can bound their backoff.
			writeJSON(w, http.StatusConflict, held)
		case errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		case err != nil:
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		default:
			writeJSON(w, http.StatusOK, res)
		}
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.Metrics())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write; nothing to do
}

// serveSSE streams a job's events as Server-Sent Events. Replay starts
// after ?since=N (or the Last-Event-ID header a reconnecting EventSource
// sends); the stream ends when the job's log closes or the client leaves.
// Sequence numbers are dense, so since=N + live follow loses nothing.
func serveSSE(w http.ResponseWriter, r *http.Request, log *EventLog) {
	since, err := sinceParam(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for {
		evs, closed := log.Next(since, r.Context().Done())
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.MarshalData())
			since = ev.Seq
		}
		if canFlush {
			fl.Flush()
		}
		if closed || r.Context().Err() != nil {
			return
		}
	}
}

func sinceParam(r *http.Request) (uint64, error) {
	s := r.URL.Query().Get("since")
	if s == "" {
		s = r.Header.Get("Last-Event-ID")
	}
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad since %q: want a sequence number", s)
	}
	return n, nil
}
