// Command awakemisd serves the task registry as a job-queue service:
// an HTTP JSON API that accepts Specs, deduplicates identical
// submissions through a content-addressed report cache (in-flight
// duplicates coalesce onto one simulation), executes on a bounded
// worker pool, and serves the resulting Reports.
//
// Usage:
//
//	awakemisd -addr :7600 -workers 4 -queue 256 -cache-mb 64
//
// With -store-dir the in-memory cache is backed by a persistent
// content-addressed store that survives restarts; with -peers the
// daemon becomes a cluster front that runs no simulations itself and
// instead shards each flight to the worker daemon owning its
// canonical spec hash:
//
//	awakemisd -addr :7700 -store-dir /var/lib/awakemis/w1           # worker
//	awakemisd -addr :7602 -peers 127.0.0.1:7700,127.0.0.1:7701      # front
//
// Endpoints (see the README's "Running as a service", "Cluster mode &
// persistence", and "Observability" sections):
//
//	POST   /v1/jobs         submit a Spec; 200 on cache hit, else 202
//	GET    /v1/jobs/{id}    job status, live progress, and (when done) its Report
//	GET    /v1/jobs/{id}/events  SSE stream of the job's states until terminal
//	DELETE /v1/jobs/{id}    cancel one submission (duplicates unaffected)
//	POST   /v1/studies      submit a StudySpec grid; always 202
//	GET    /v1/studies      list studies, newest first, with live progress
//	GET    /v1/studies/{id} study status, per-cell progress, and (when done) its artifact
//	GET    /v1/studies/{id}/events  SSE stream of the study's progress until terminal
//	DELETE /v1/studies/{id} cancel a study and its unfinished sub-runs
//	GET    /v1/tasks        the task registry
//	GET    /v1/stats        cache/store/queue/job/study/peer/engine counters
//	GET    /v1/cluster/stats  fleet-wide per-peer stats + merged total (front only)
//	GET    /v1/dashboard    embedded live dashboard (self-contained HTML)
//	GET    /v1/healthz      200 serving, 503 draining; body carries build info
//	GET    /metrics         Prometheus text exposition (disable: -metrics=false)
//
// All logging is structured (log/slog) on stderr; -log-format picks
// text or JSON records. Every request and job record carries the
// X-Awakemis-Trace-Id it arrived with (minted when absent), so one
// grep follows a submission across a whole cluster. -pprof exposes
// net/http/pprof on a separate listener for live profiling.
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued
// and running simulations finish (up to -drain-timeout, then they are
// canceled at the next round boundary), and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"awakemis/internal/buildinfo"
	"awakemis/internal/cluster"
	"awakemis/internal/service"
	"awakemis/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":7600", "listen address")
		workers     = flag.Int("workers", 0, "simulations in flight at once (0 = one per CPU, capped at 4)")
		simWorkers  = flag.Int("sim-workers", 0, "total engine worker budget divided among the slots (0 = one per CPU)")
		queue       = flag.Int("queue", 0, "pending-simulation queue bound (0 = 256)")
		cacheMB     = flag.Int64("cache-mb", 0, "report cache budget in MiB (0 = 64, negative disables)")
		history     = flag.Int("history", 0, "finished jobs kept queryable (0 = 4096)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown lets in-flight simulations finish")
		storeDir    = flag.String("store-dir", "", "persistent report store directory (empty = memory only)")
		storeBudget = flag.Int64("store-budget", 0, "store byte budget in MiB (0 = 1024, negative unlimited)")
		peers       = flag.String("peers", "", "comma-separated worker daemon addresses; makes this daemon a cluster front")
		metrics     = flag.Bool("metrics", true, "serve Prometheus text metrics at GET /metrics")
		logFormat   = flag.String("log-format", "text", "structured log format: text|json")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
		version     = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "error: unknown -log-format %q (want text|json)\n", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)

	cfg := service.Config{
		Workers:    *workers,
		SimWorkers: *simWorkers,
		QueueSize:  *queue,
		CacheBytes: *cacheMB << 20,
		JobHistory: *history,
		Metrics:    *metrics,
		Logger:     logger,
	}

	if *storeDir != "" {
		budget := *storeBudget << 20
		if *storeBudget < 0 {
			budget = -1
		}
		st, err := store.Open(*storeDir, budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error: opening store:", err)
			os.Exit(1)
		}
		ss := st.Stats()
		logger.Info("store recovered", "dir", st.Dir(),
			"entries", ss.Entries, "bytes", ss.Bytes, "budget", ss.Budget)
		cfg.Store = st
	}

	var front *cluster.Front
	if *peers != "" {
		var err error
		front, err = cluster.New(strings.Split(*peers, ","), cluster.Options{Logger: logger})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		front.Start()
		cfg.Forward = front
		logger.Info("cluster front", "peers", len(front.PeerHealth()))
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the profiling
		// surface never shares a port with the public API.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error: pprof listen:", err)
			os.Exit(1)
		}
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := http.Serve(pln, pm); err != nil {
				logger.Error("pprof serve", "error", err.Error())
			}
		}()
	}

	srv := service.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	bi := buildinfo.Get()
	logger.Info("awakemisd listening", "addr", ln.Addr().String(),
		"version", bi.Version, "revision", bi.Revision, "go", bi.GoVersion)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "timeout", drain.String())
	case err := <-errc:
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	}

	// Drain the job queue first — new submissions already get 503, but
	// status polls keep working so waiting clients see their jobs
	// finish — then stop forwarding, then close the HTTP listener. The
	// store needs no flush: every write is already durable.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	switch err := srv.Shutdown(drainCtx); {
	case errors.Is(err, context.DeadlineExceeded):
		logger.Warn("drain timed out; in-flight simulations were canceled")
	case err != nil:
		logger.Warn("drain", "error", err.Error())
	}
	if front != nil {
		front.Close()
	}
	if cfg.Store != nil {
		cfg.Store.Close()
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		logger.Warn("http shutdown", "error", err.Error())
	}
	logger.Info("awakemisd stopped")
}
