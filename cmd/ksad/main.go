// Command ksad is the experiment daemon: a long-running service exposing
// the repo's experiments over a versioned HTTP API.
//
// Usage:
//
//	ksad [-listen addr] [-workers N] [-cache dir] [-quiet]
//
// Jobs (sweeps, and the experiment table's entries by name) are
// submitted as JSON to POST /v1/jobs, multiplexed onto one shared worker
// pool with per-job priorities, cancelled with DELETE /v1/jobs/{id}, and
// observed live over the SSE stream at GET /v1/jobs/{id}/events (replay
// from any sequence number with ?since=N). With -cache, every cell is
// memoized in the content-addressed result store and fully warmed jobs
// are answered straight from disk without occupying the pool.
//
// The daemon adds scheduling and observation only — job results are
// bit-identical to the same experiment run by ksaexp or varbench.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ksa/internal/daemon"
	"ksa/internal/resultcache"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7077", "address to serve the HTTP API on")
	workers := flag.Int("workers", 0, "shared pool worker threads (0 = GOMAXPROCS); results are bit-identical for any value")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty disables); warmed jobs are served from it without touching the pool")
	quiet := flag.Bool("quiet", false, "suppress per-job lifecycle logging")
	flag.Parse()

	logger := log.New(os.Stderr, "ksad: ", log.LstdFlags)

	var cache *resultcache.Store
	if *cacheDir != "" {
		var err error
		cache, err = resultcache.Open(*cacheDir)
		if err != nil {
			logger.Fatal(err)
		}
	}

	cfg := daemon.Config{Workers: *workers, Cache: cache}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	d := daemon.New(cfg)

	// Bind before announcing: with "-listen 127.0.0.1:0" the kernel picks
	// the port, and supervisors (the distributed-sweep fleet spawner) parse
	// the actual bound address from this line.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatal(err)
	}
	srv := &http.Server{Handler: daemon.NewRouter(d)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Printf("listening on http://%s (workers=%d cache=%s)",
		ln.Addr(), d.Metrics().Pool.Workers, orOff(*cacheDir))

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		logger.Printf("shutting down: cancelling jobs, draining in-flight cells")
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		srv.Shutdown(sctx) //nolint:errcheck // best-effort drain
		d.Close()
	}
}

func orOff(s string) string {
	if s == "" {
		return "off"
	}
	return fmt.Sprintf("%q", s)
}
