// Command pcie-served is pcie-bench as a service: a persistent HTTP
// server that accepts sweep Spec documents on the versioned v1 API,
// dedups cells against a content-addressed result cache, shards
// execution over the worker pool, and streams incremental results.
//
// Examples:
//
//	pcie-served                                  # :8080, in-memory cache
//	pcie-served -addr :9000 -cache disk -cache-dir ./sweep-cache
//	pcie-served -workers 8 -max-jobs 4 -quality full
//
//	curl -s localhost:8080/v1/registry
//	curl -s -X POST --data-binary @examples/sweeps/topo-contend.json \
//	    'localhost:8080/v1/sweeps?set=n=200'
//	curl -s localhost:8080/v1/sweeps/sw-1
//	curl -sN 'localhost:8080/v1/sweeps/sw-1/results?stream=1'
//	curl -s 'localhost:8080/v1/sweeps/sw-1/results?format=tsv'
//
// SIGINT/SIGTERM drain in-flight requests, cancel running jobs and
// exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"pciebench/internal/buildinfo"
	"pciebench/internal/cache"
	_ "pciebench/internal/report" // registers the paper-figure sweeps
	"pciebench/internal/serve"
	"pciebench/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pcie-served:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it serves until ctx is cancelled,
// then shuts down gracefully. When ready is non-nil it receives the
// bound address once the listener is up (tests pass -addr with port 0).
func run(ctx context.Context, args []string, stderr io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("pcie-served", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 0, "per-job worker cap (0 = GOMAXPROCS); requests may ask for fewer, never more")
		maxJobs  = fs.Int("max-jobs", 2, "concurrently executing jobs; later submissions queue, up to 256 queued or running (past that, 503)")
		quality  = fs.String("quality", "quick", "default sample-count quality: quick|full (requests may override)")
		cacheSel = fs.String("cache", "mem", "result cache backend: mem (in-process, at most 64 MiB, oldest entries evicted first)|disk|off")
		cacheDir = fs.String("cache-dir", "pcie-served-cache", "on-disk cache directory (with -cache disk)")
		quiet    = fs.Bool("quiet", false, "suppress per-request and per-job log lines")

		readTO  = fs.Duration("read-timeout", 30*time.Second, "per-request read deadline (headers+body; 0 = none)")
		writeTO = fs.Duration("write-timeout", 0, "per-request write deadline (0 = none; streaming results need it off or generous)")
		jobTO   = fs.Duration("job-timeout", 0, "per-job wall-clock deadline; an overrunning sweep is cancelled and reported as \"timeout\" (0 = none)")
		maxBody = fs.Int64("max-body", 4<<20, "largest accepted request body in bytes (oversized submissions get 413)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var q sweep.Quality
	switch *quality {
	case "quick":
		q = sweep.Quick
	case "full":
		q = sweep.Full
	default:
		return fmt.Errorf("-quality must be quick or full, not %q", *quality)
	}

	// Request and job goroutines log concurrently; serialize writes so
	// any io.Writer (not just *os.File) is safe to pass in.
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(stderr, format+"\n", args...)
	}

	var store cache.Store
	switch *cacheSel {
	case "mem":
		store = cache.NewMemory()
	case "disk":
		disk, err := cache.NewDisk(*cacheDir)
		if err != nil {
			return fmt.Errorf("open cache: %w", err)
		}
		disk.Logf = logf // quarantine events are operator-facing, never quieted
		store = disk
	case "off":
	default:
		return fmt.Errorf("-cache must be mem, disk or off, not %q", *cacheSel)
	}
	srv := serve.New(serve.Config{
		Workers:    *workers,
		MaxJobs:    *maxJobs,
		Quality:    q,
		Cache:      store,
		Build:      buildinfo.Version(),
		MaxBody:    *maxBody,
		JobTimeout: *jobTO,
		Logf: func(format string, args ...any) {
			if !*quiet {
				logf(format, args...)
			}
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	limits := srv.Config()
	logf("pcie-served listening on %s (workers=%d max-jobs=%d quality=%s cache=%s build=%s)",
		ln.Addr(), limits.Workers, limits.MaxJobs, q, *cacheSel, buildinfo.Version())
	if ready != nil {
		ready(ln.Addr().String())
	}

	// Per-request socket deadlines: a stalled or malicious client can
	// hold a connection open only this long. Write stays configurable
	// (and off by default) because ?stream=1 responses legitimately
	// outlive any fixed deadline.
	hs := &http.Server{
		Handler:           srv,
		ReadTimeout:       *readTO,
		ReadHeaderTimeout: *readTO,
		WriteTimeout:      *writeTO,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: cancel running jobs first — streaming
	// responses observe the terminal state and end — then drain
	// in-flight requests with a bounded deadline.
	logf("pcie-served: shutting down")
	srv.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
